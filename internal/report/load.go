package report

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// LoadSchema versions the load-test report JSON emitted by cmd/mgload;
// bump it when a field changes meaning. /2 added multi-target runs:
// the targets list and the per_target breakdown (addr no longer names
// the only server driven, just the first).
const LoadSchema = "mediumgrain-load/2"

// LatencySummary condenses a latency sample into the percentiles a
// closed-loop load test reports. All values are milliseconds.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// SummarizeLatencies computes the summary of a millisecond sample. The
// input is not modified; percentiles use the nearest-rank convention on
// the sorted copy. An empty sample yields the zero summary.
func SummarizeLatencies(ms []float64) LatencySummary {
	if len(ms) == 0 {
		return LatencySummary{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return LatencySummary{
		Count:  len(s),
		MeanMS: sum / float64(len(s)),
		P50MS:  rank(0.50),
		P90MS:  rank(0.90),
		P99MS:  rank(0.99),
		MaxMS:  s[len(s)-1],
	}
}

// LoadEntry aggregates the requests of one (matrix, p, method, seed)
// job spec over a load run.
type LoadEntry struct {
	Matrix    string         `json:"matrix"`
	P         int            `json:"p"`
	Method    string         `json:"method"`
	Seed      int64          `json:"seed"`
	Requests  int64          `json:"requests"`
	Errors    int64          `json:"errors"`
	CacheHits int64          `json:"cache_hits"`
	Latency   LatencySummary `json:"latency"`
}

// LoadReport is the machine-readable output of cmd/mgload: one
// closed-loop run of N clients hammering an mgserve daemon.
type LoadReport struct {
	Schema     string  `json:"schema"`
	CreatedUTC string  `json:"created_utc"`
	GoVersion  string  `json:"go_version"`
	Addr       string  `json:"addr"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	ZipfTheta  float64 `json:"zipf_theta"`
	DurationMS float64 `json:"duration_ms"`

	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	CacheHits     int64   `json:"cache_hits"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Retries counts client-side resubmissions of failed requests (the
	// -retries flag); a request that eventually succeeds is not an error.
	// ErrorRate is Errors/Requests, the figure -max-error-rate gates on.
	Retries   int64   `json:"retries"`
	ErrorRate float64 `json:"error_rate"`

	// Latency is the end-to-end (submit → done) client-side summary over
	// every successful request.
	Latency LoadLatency `json:"latency"`

	// Targets lists every base URL the run drove when more than one was
	// given (a cluster router plus direct shards, or several shards);
	// requests round-robin across them. Addr is Targets[0].
	Targets []string `json:"targets,omitempty"`

	// PerSpec breaks the run down by job spec, sorted by request count
	// descending (the Zipf head first).
	PerSpec []LoadEntry `json:"per_spec"`

	// PerTarget breaks the run down by server: client-side counters plus
	// that target's own /stats snapshot (which, against a cluster shard
	// or router, includes its breaker and peer-exchange counters).
	PerTarget []LoadTargetEntry `json:"per_target,omitempty"`

	// Verified / VerifyFailures count the unique specs whose served
	// parts vector was compared against an offline library run.
	Verified       int `json:"verified"`
	VerifyFailures int `json:"verify_failures"`

	// ServerStats snapshots the daemon's /stats JSON at the end of the
	// run (queue depth, cache hit rate, per-method latencies).
	ServerStats json.RawMessage `json:"server_stats,omitempty"`
}

// LoadTargetEntry aggregates one target's share of a load run.
type LoadTargetEntry struct {
	Addr      string `json:"addr"`
	Requests  int64  `json:"requests"`
	Errors    int64  `json:"errors"`
	Retries   int64  `json:"retries"`
	CacheHits int64  `json:"cache_hits"`
	// Stats is the target's raw /stats JSON at the end of the run.
	Stats json.RawMessage `json:"stats,omitempty"`
}

// LoadLatency holds the overall client-side latency view.
type LoadLatency struct {
	Overall LatencySummary `json:"overall"`
	// Hits / Misses split the summary by whether the submission was
	// served from the daemon's result cache.
	Hits   LatencySummary `json:"cache_hits"`
	Misses LatencySummary `json:"cache_misses"`
}

// NewLoadReport returns a report header stamped with the toolchain.
// createdUTC is RFC 3339, supplied by the caller for testability.
func NewLoadReport(createdUTC, addr string, clients int, seed int64, theta float64) *LoadReport {
	return &LoadReport{
		Schema:     LoadSchema,
		CreatedUTC: createdUTC,
		GoVersion:  runtime.Version(),
		Addr:       addr,
		Clients:    clients,
		Seed:       seed,
		ZipfTheta:  theta,
	}
}

// SortPerSpec orders the per-spec entries by request count descending,
// ties by (matrix, p, method, seed) for a stable layout.
func (r *LoadReport) SortPerSpec() {
	sort.Slice(r.PerSpec, func(i, j int) bool {
		a, b := r.PerSpec[i], r.PerSpec[j]
		if a.Requests != b.Requests {
			return a.Requests > b.Requests
		}
		if a.Matrix != b.Matrix {
			return a.Matrix < b.Matrix
		}
		if a.P != b.P {
			return a.P < b.P
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		return a.Seed < b.Seed
	})
}

// WriteJSON renders the report as indented JSON.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path, creating or truncating it.
func (r *LoadReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
