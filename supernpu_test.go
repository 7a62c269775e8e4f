package supernpu

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeDesigns(t *testing.T) {
	names := []string{}
	for _, d := range Designs() {
		names = append(names, d.Name())
	}
	want := "TPU Baseline Buffer opt. Resource opt. SuperNPU"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("Designs() = %q, want %q", got, want)
	}
	if len(Workloads()) != 6 {
		t.Fatal("Workloads() must return the six evaluation CNNs")
	}
}

func TestFacadeEvaluateAndSpeedup(t *testing.T) {
	net, err := WorkloadByName("GoogLeNet")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(context.Background(), SuperNPU(), net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Throughput <= 0 || ev.Batch != 30 {
		t.Fatalf("unexpected evaluation: %+v", ev)
	}
	s, err := Speedup(context.Background(), SuperNPU(), net)
	if err != nil {
		t.Fatal(err)
	}
	if s < 10 {
		t.Fatalf("SuperNPU speedup on GoogLeNet = %.1f, want > 10", s)
	}
}

func TestFacadeERSFQ(t *testing.T) {
	d := ERSFQ(SuperNPU())
	if d.Name() != "ERSFQ-SuperNPU" {
		t.Fatalf("name = %q", d.Name())
	}
	est, err := EstimateDesign(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if est.StaticPower != 0 {
		t.Fatal("ERSFQ design must have zero static power")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ERSFQ on a CMOS design must panic")
		}
	}()
	ERSFQ(TPU())
}

func TestFacadeCustomNetwork(t *testing.T) {
	net := NewNetwork("tiny",
		NewConvLayer("c1", 32, 32, 3, 3, 3, 16, 1, 1),
		NewDepthwiseLayer("dw", 32, 32, 16, 3, 3, 2, 1),
		NewConvLayer("pw", 16, 16, 16, 1, 1, 32, 1, 0),
		NewPoolLayer("pool", 16, 16, 32, 2, 2, 0),
		NewFCLayer("fc", 8*8*32, 10),
	)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(context.Background(), SuperNPU(), net, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MACs != 4*net.TotalMACs() {
		t.Fatal("custom network MAC accounting wrong")
	}
}

func TestFacadeValidationAndExperiments(t *testing.T) {
	if rep := ValidateModels(); len(rep.Items) != 11 {
		t.Fatal("validation must cover the 11 Fig. 13 subjects")
	}
	if len(ExperimentIDs()) != 13 {
		t.Fatal("13 exhibits expected")
	}
	out, err := RunExperiment(context.Background(), "table2")
	if err != nil || !strings.Contains(out, "Table II") {
		t.Fatalf("RunExperiment failed: %v", err)
	}
}

func TestFacadeExploration(t *testing.T) {
	ctx := context.Background()
	pts, err := ExploreDivision(ctx, []int{64}, nil)
	if err != nil || len(pts) != 3 {
		t.Fatalf("ExploreDivision: %v (%d points)", err, len(pts))
	}
	if pts[2].MaxBatch <= pts[0].MaxBatch {
		t.Fatal("division 64 must beat the Baseline")
	}
	w, err := ExploreWidth(ctx, nil)
	if err != nil || len(w) != 5 {
		t.Fatalf("ExploreWidth: %v", err)
	}
	r, err := ExploreRegisters(ctx, 64, []int{1, 8}, nil)
	if err != nil || len(r) != 2 {
		t.Fatalf("ExploreRegisters: %v", err)
	}
}
