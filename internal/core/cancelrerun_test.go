package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"supernpu/internal/guard"
	"supernpu/internal/simcache"
)

// drainDegrees is a division sweep wide enough that, with cold caches, a
// mid-run cancellation lands while points are still being computed.
var drainDegrees = []int{2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64}

// totalMisses sums the miss counters of every registered simcache.
func totalMisses() int64 {
	var n int64
	for _, s := range simcache.Snapshot() {
		n += s.Misses
	}
	return n
}

// cancelOnMiss is a context that cancels itself the first time it is polled
// after any simcache miss, so the cancellation lands inside the first
// computation (the simulators poll ctx.Err between layers) rather than
// between two claims of the worker pool.
type cancelOnMiss struct {
	context.Context
	cancel context.CancelFunc
}

func (c cancelOnMiss) Err() error {
	if totalMisses() > 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestExploreCancelThenRerunByteIdentical: a canceled sweep is simply run
// again. A pre-canceled context must fail with the guard taxonomy; a
// division sweep canceled mid-run on cold caches must either finish or fail
// the same way; and a rerun must then be byte-identical to a cold,
// uninterrupted reference — the cancellation poisoned no cache entry.
func TestExploreCancelThenRerunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cold full-width division sweep")
	}
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := ExploreDivision(pre, drainDegrees, nil); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("pre-canceled sweep: got %v, want guard.ErrCanceled", err)
	}

	// Cold caches so the canceled attempt does real work instead of
	// replaying memoised results instantaneously.
	simcache.ClearAll()
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := cancelOnMiss{inner, cancel}
	_, sweepErr := ExploreDivision(ctx, drainDegrees, nil)
	if sweepErr != nil && !errors.Is(sweepErr, guard.ErrCanceled) {
		t.Fatalf("canceled sweep failed outside the taxonomy: %v", sweepErr)
	}
	t.Logf("mid-run cancel: err=%v", sweepErr)

	// Rerun over whatever the canceled attempt left in the caches.
	rerun, err := ExploreDivision(context.Background(), drainDegrees, nil)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}

	// Reference: the same sweep, cold and uninterrupted.
	simcache.ClearAll()
	reference, err := ExploreDivision(context.Background(), drainDegrees, nil)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	refJSON, err := json.Marshal(reference)
	if err != nil {
		t.Fatal(err)
	}
	rerunJSON, err := json.Marshal(rerun)
	if err != nil {
		t.Fatal(err)
	}
	if string(refJSON) != string(rerunJSON) {
		t.Fatalf("rerun after cancel diverges from a cold uninterrupted run:\nrerun     %s\nreference %s", rerunJSON, refJSON)
	}
	if !reflect.DeepEqual(reference, rerun) {
		t.Fatal("rerun sweep points differ structurally from the uninterrupted run")
	}
}
