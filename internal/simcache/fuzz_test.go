// Native Go fuzz target for key injectivity: the memo caches rely on
// ConfigKey/NetworkKey/SimKey being collision-free — two distinct inputs
// sharing a fingerprint would silently serve one input's simulation result
// for the other. The fuzzer derives two configurations and two workloads
// from the input bytes and checks keys are equal exactly when the values
// are. Seed corpus in testdata/fuzz/; run with
//
//	go test ./internal/simcache -run='^$' -fuzz=FuzzKeyInjectivity -fuzztime=30s
package simcache

import (
	"reflect"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

// byteFeed deals bounded values off a fuzz input, cycling when exhausted so
// any input length yields fully populated structures.
type byteFeed struct {
	data []byte
	pos  int
}

func (f *byteFeed) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.pos%len(f.data)]
	f.pos++
	return b
}

// nameAlphabet excludes the \x1f field separator: the fingerprint contract
// (documented on Fingerprint) requires that names never contain it.
const nameAlphabet = "abcXYZ 019_.-"

func (f *byteFeed) name(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = nameAlphabet[int(f.next())%len(nameAlphabet)]
	}
	return string(out)
}

func (f *byteFeed) intIn(lo, hi int) int {
	span := hi - lo + 1
	return lo + (int(f.next())<<8|int(f.next()))%span
}

// config derives one arch.Config from the feed. Values need not be valid
// designs — keys must be injective over the whole struct space.
func (f *byteFeed) config() arch.Config {
	tech := sfq.RSFQ
	if f.next()%2 == 1 {
		tech = sfq.ERSFQ
	}
	return arch.Config{
		Name:        f.name(int(f.next()) % 8),
		ArrayHeight: f.intIn(0, 4096), ArrayWidth: f.intIn(0, 4096),
		Registers:     f.intIn(0, 64),
		IfmapBufBytes: f.intIn(0, 1<<26), IfmapChunks: f.intIn(0, 256),
		OutputBufBytes: f.intIn(0, 1<<26), OutputChunks: f.intIn(0, 256),
		IntegratedOutput: f.next()%2 == 1,
		PsumBufBytes:     f.intIn(0, 1<<26),
		WeightBufBytes:   f.intIn(0, 1<<20),
		Tech:             tech,
		MemoryBandwidth:  float64(f.intIn(0, 1<<30)),
	}
}

// network derives one workload from the feed.
func (f *byteFeed) network() workload.Network {
	layers := make([]workload.Layer, int(f.next())%4)
	for i := range layers {
		layers[i] = workload.Layer{
			Name: f.name(int(f.next()) % 6),
			Kind: workload.Kind(f.next() % 4),
			H:    f.intIn(0, 512), W: f.intIn(0, 512), C: f.intIn(0, 512),
			R: f.intIn(0, 16), S: f.intIn(0, 16), M: f.intIn(0, 512),
			Stride: f.intIn(0, 8), Pad: f.intIn(0, 8),
		}
	}
	return workload.Network{Name: f.name(int(f.next()) % 8), Layers: layers}
}

func FuzzKeyInjectivity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("supernpu-key-fuzz-seed"))
	f.Add([]byte{255, 254, 253, 252, 0, 0, 0, 1, 1, 1, 31, 31})
	f.Add([]byte{31, 0, 31, 0, 31})
	f.Add([]byte("layer-grain-proj-shape-batch-seed"))

	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		fa := &byteFeed{data: data[:half]}
		fb := &byteFeed{data: data[half:]}

		ca, cb := fa.config(), fb.config()
		ka, kb := ConfigKey(ca), ConfigKey(cb)
		if (ca == cb) != (ka == kb) {
			t.Fatalf("ConfigKey injectivity violated:\n a=%+v -> %q\n b=%+v -> %q", ca, ka, cb, kb)
		}

		na, nb := fa.network(), fb.network()
		nka, nkb := NetworkKey(na), NetworkKey(nb)
		if reflect.DeepEqual(na, nb) != (nka == nkb) {
			t.Fatalf("NetworkKey injectivity violated:\n a=%+v -> %q\n b=%+v -> %q", na, nka, nb, nkb)
		}

		// SimKey must also separate batch sizes over identical (cfg, net).
		ba, bb := fa.intIn(0, 64), fb.intIn(0, 64)
		ska := SimKey(ca, na, ba)
		skb := SimKey(cb, nb, bb)
		same := ca == cb && reflect.DeepEqual(na, nb) && ba == bb
		if same != (ska == skb) {
			t.Fatalf("SimKey injectivity violated (batch %d vs %d):\n a=%q\n b=%q", ba, bb, ska, skb)
		}
	})
}
