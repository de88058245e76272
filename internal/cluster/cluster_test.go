package cluster

import "testing"

func TestTop500HasFifteenSystems(t *testing.T) {
	systems := Top500Systems()
	if len(systems) != 15 {
		t.Fatalf("Figure 1 compares 15 systems, got %d", len(systems))
	}
	names := map[string]bool{}
	for _, s := range systems {
		if s.Name == "" {
			t.Fatal("system without a name")
		}
		if names[s.Name] {
			t.Fatalf("duplicate system %q", s.Name)
		}
		names[s.Name] = true
		if s.NodeLocalBytes < 0 || s.NetworkFlashBytes < 0 {
			t.Fatalf("%s: negative capacity", s.Name)
		}
	}
	// The paper highlights these specific facts.
	if !names["Fugaku"] || !names["ABCI"] {
		t.Fatal("experiment platforms missing from Figure 1")
	}
}

func TestFigure1Facts(t *testing.T) {
	byName := map[string]System{}
	for _, s := range Top500Systems() {
		byName[s.Name] = s
	}
	// Fugaku exposes ~50 GB of node-dedicated capacity (Section II).
	if f := byName["Fugaku"]; f.NodeLocalBytes != 50*GiB || f.NetworkFlashBytes != 0 {
		t.Fatalf("Fugaku capacity %d/%d", f.NodeLocalBytes, f.NetworkFlashBytes)
	}
	// Frontera, Piz Daint, Trinity use network-attached flash, not local SSD.
	for _, n := range []string{"Frontera", "Piz Daint", "Trinity"} {
		s := byName[n]
		if s.NodeLocalBytes != 0 || s.NetworkFlashBytes == 0 {
			t.Errorf("%s should have network flash only, has %d/%d", n, s.NodeLocalBytes, s.NetworkFlashBytes)
		}
	}
	// DL-designed systems are starred, and some systems have zero capacity.
	stars, zeros := 0, 0
	for _, s := range Top500Systems() {
		if s.DLDesigned {
			stars++
		}
		if s.PerNodeBytes() == 0 {
			zeros++
		}
	}
	if stars == 0 {
		t.Fatal("no DL-designed systems starred")
	}
	if zeros == 0 {
		t.Fatal("no zero-capacity systems; Figure 1 shows several")
	}
}

func TestFitsReproducesFigure1Story(t *testing.T) {
	byName := map[string]System{}
	for _, s := range Top500Systems() {
		byName[s.Name] = s
	}
	sizes := map[string]int64{}
	for _, d := range Figure1Datasets() {
		sizes[d.Name] = d.Bytes
	}
	// ImageNet-1K fits on typical 1.6 TB node SSDs but not in Fugaku's slice.
	if !byName["Summit"].Fits(sizes["ImageNet-1K"]) {
		t.Error("ImageNet-1K should fit Summit's local SSD")
	}
	if byName["Fugaku"].Fits(sizes["ImageNet-1K"]) {
		t.Error("ImageNet-1K should not fit Fugaku's 50 GB slice")
	}
	// DeepCAM (8.2 TiB) fits nowhere, not even on DL-designed systems —
	// "even those platforms cannot satisfy storage requirements for all
	// data sets" (Section II).
	for _, s := range Top500Systems() {
		if s.Fits(sizes["DeepCAM"]) {
			t.Errorf("DeepCAM unexpectedly fits %s", s.Name)
		}
	}
}

func TestFigure1DatasetsOrdering(t *testing.T) {
	ds := Figure1Datasets()
	if len(ds) < 8 {
		t.Fatalf("Figure 1 draws at least 8 dataset lines, got %d", len(ds))
	}
	for _, d := range ds {
		if d.Bytes <= 0 {
			t.Fatalf("%s has non-positive size", d.Name)
		}
	}
}

func TestMachinePresets(t *testing.T) {
	abci := ABCI()
	if abci.WorkersPerNode != 4 || abci.Nodes != 1088 {
		t.Fatalf("ABCI shape: %d workers/node, %d nodes", abci.WorkersPerNode, abci.Nodes)
	}
	fugaku := Fugaku()
	if fugaku.Nodes != 158976 {
		t.Fatalf("Fugaku nodes = %d", fugaku.Nodes)
	}
	// Fugaku's per-worker slice is far smaller than ABCI's.
	if fugaku.LocalSSDBytes >= abci.LocalSSDBytes {
		t.Fatal("Fugaku should have less local storage per worker than ABCI")
	}
	for _, m := range []Machine{abci, fugaku} {
		if m.LocalReadBW <= 0 || m.PFSEffectiveBW <= 0 || m.InjectionBW <= 0 || m.AllreduceBW <= 0 {
			t.Fatalf("%s: missing bandwidth parameters", m.Name)
		}
		if m.PFSEffectiveBW >= m.PFSPeakBW {
			t.Fatalf("%s: effective PFS bandwidth should be below peak", m.Name)
		}
	}
}
