package experiments

import (
	"strings"
	"testing"
)

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 19 {
		t.Fatalf("registry has %d experiments, want 19 (every table and figure + extensions)", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("incomplete registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if _, err := Lookup(e.ID); err != nil {
			t.Fatalf("Lookup(%q): %v", e.ID, err)
		}
	}
	for _, want := range []string{"fig1", "table1", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f",
		"fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10", "shuffling-error", "norm-ablation", "hier-exchange", "eventsim", "autoq"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig1Content(t *testing.T) {
	res, err := Fig1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("fig1 tables = %d", len(res.Tables))
	}
	if res.Tables[0].NumRows() != 15 {
		t.Fatalf("fig1 system rows = %d, want 15", res.Tables[0].NumRows())
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fugaku", "ABCI", "DeepCAM", "ImageNet-1K"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestTable1Content(t *testing.T) {
	res, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables[0].NumRows() != 6 {
		t.Fatalf("table1 rows = %d, want 6 datasets", res.Tables[0].NumRows())
	}
}

func TestOptionsSeedDefault(t *testing.T) {
	if (Options{}).seed() != 2022 {
		t.Fatal("default seed changed; recorded experiment outputs depend on it")
	}
	if (Options{Seed: 7}).seed() != 7 {
		t.Fatal("seed override ignored")
	}
}
