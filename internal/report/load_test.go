package report

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSummarizeLatencies(t *testing.T) {
	if s := SummarizeLatencies(nil); s != (LatencySummary{}) {
		t.Fatalf("empty sample must give zero summary, got %+v", s)
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(100 - i) // 100..1, unsorted input
	}
	s := SummarizeLatencies(ms)
	if s.Count != 100 || s.MaxMS != 100 {
		t.Fatalf("count/max wrong: %+v", s)
	}
	if s.P50MS != 50 || s.P90MS != 90 || s.P99MS != 99 {
		t.Fatalf("nearest-rank percentiles wrong: %+v", s)
	}
	if s.MeanMS != 50.5 {
		t.Fatalf("mean = %v, want 50.5", s.MeanMS)
	}
	if ms[0] != 100 {
		t.Fatal("input sample was mutated")
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	r := NewLoadReport("2026-07-29T00:00:00Z", "127.0.0.1:1", 32, 7, 0.9)
	r.Requests = 10
	r.CacheHits = 4
	r.PerSpec = []LoadEntry{
		{Matrix: "a", P: 2, Method: "MG", Requests: 3},
		{Matrix: "b", P: 4, Method: "MG", Requests: 7},
	}
	r.SortPerSpec()
	if r.PerSpec[0].Matrix != "b" {
		t.Fatal("SortPerSpec must order by request count descending")
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got LoadReport
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != LoadSchema {
		t.Fatalf("schema = %q, want %q", got.Schema, LoadSchema)
	}
	if got.Clients != 32 || got.Requests != 10 || len(got.PerSpec) != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}
