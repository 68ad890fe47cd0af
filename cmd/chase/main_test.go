package main

import (
	"context"
	"testing"
)

func TestRunOntology(t *testing.T) {
	err := run(context.Background(), "r", "../../testdata/ontology.dl", "../../testdata/ontology_db.dl", 1000, 1000, false, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunOntologyStreamed(t *testing.T) {
	err := run(context.Background(), "r", "../../testdata/ontology.dl", "../../testdata/ontology_db.dl", 1000, 1000, false, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunDivergentBudget(t *testing.T) {
	err := run(context.Background(), "so", "../../testdata/example1.dl", "../../testdata/example1_db.dl", 50, 1000, true, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPrecheck(t *testing.T) {
	err := run(context.Background(), "so", "../../testdata/ontology.dl", "../../testdata/ontology_db.dl", 1000, 1000, false, false, false, true)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), "zzz", "../../testdata/ontology.dl", "../../testdata/ontology_db.dl", 10, 10, false, false, false, false); err == nil {
		t.Error("bad variant accepted")
	}
	if err := run(context.Background(), "so", "../../testdata/missing.dl", "../../testdata/ontology_db.dl", 10, 10, false, false, false, false); err == nil {
		t.Error("missing rules file accepted")
	}
	if err := run(context.Background(), "so", "../../testdata/ontology.dl", "../../testdata/missing.dl", 10, 10, false, false, false, false); err == nil {
		t.Error("missing db file accepted")
	}
	// Rules file given as database (facts expected): parse error.
	if err := run(context.Background(), "so", "../../testdata/ontology.dl", "../../testdata/ontology.dl", 10, 10, false, false, false, false); err == nil {
		t.Error("rules-as-database accepted")
	}
}
