package output

import (
	"encoding/json"
	"io"
	"time"
)

// PhaseTiming records one scan lifecycle phase: generation (cyclic
// group and generator search), send, cooldown, drain, and done. The
// engine logs each transition through slog as it happens and summarizes
// the full sequence here, so a scan's wall time can be attributed
// post-hoc without parsing the log stream.
type PhaseTiming struct {
	Phase        string    `json:"phase"`
	Start        time.Time `json:"start"`
	DurationSecs float64   `json:"duration_secs"`
}

// Metadata is the machine-readable end-of-scan summary — the fourth
// output stream from §5 ("be liberal in what environment and execution
// information is included"). One JSON document is written at completion.
type Metadata struct {
	// Tool identity and configuration.
	Tool          string   `json:"tool"`
	Version       string   `json:"version"`
	ProbeModule   string   `json:"probe_module"`
	OutputFormat  string   `json:"output_format"`
	OutputFilter  string   `json:"output_filter"`
	Seed          int64    `json:"seed"`
	Shards        int      `json:"shards"`
	ShardIndex    int      `json:"shard_index"`
	SenderThreads int      `json:"sender_threads"`
	RatePPS       float64  `json:"rate_pps"`
	Ports         string   `json:"ports"`
	OptionLayout  string   `json:"tcp_option_layout"`
	RandomIPID    bool     `json:"random_ip_id"`
	MaxTargets    uint64   `json:"max_targets"`
	Probes        int      `json:"probes_per_target"`
	CooldownSecs  float64  `json:"cooldown_secs"`
	Blocklisted   uint64   `json:"blocklisted_addrs"`
	Allowlisted   uint64   `json:"allowlisted_addrs"`
	Group         uint64   `json:"cyclic_group_prime"`
	Generator     uint64   `json:"cyclic_generator"`
	Flags         []string `json:"flags,omitempty"`

	// Timing.
	StartTime time.Time     `json:"start_time"`
	EndTime   time.Time     `json:"end_time"`
	Duration  float64       `json:"duration_secs"`
	Phases    []PhaseTiming `json:"phases,omitempty"`

	// Counters.
	TargetsScanned uint64   `json:"targets_scanned"`
	PacketsSent    uint64   `json:"packets_sent"`
	PacketsRecv    uint64   `json:"packets_received"`
	ValidResponses uint64   `json:"valid_responses"`
	Successes      uint64   `json:"successes"`
	UniqueSucc     uint64   `json:"unique_successes"`
	Duplicates     uint64   `json:"duplicate_responses"`
	RecvDrops      uint64   `json:"receive_drops"`
	ThreadProgress []uint64 `json:"thread_progress,omitempty"`
	HitRate        float64  `json:"hit_rate"`
	SendRatePPS    float64  `json:"achieved_send_pps"`

	// Send-path fault accounting: failed transport attempts, retries
	// after transient errors, probes dropped once the retry budget ran
	// out, supervised sender restarts, and wall time spent below the
	// configured rate because the transport was failing.
	SendErrors     uint64  `json:"send_errors"`
	SendRetries    uint64  `json:"retries"`
	SendDrops      uint64  `json:"send_drops"`
	SenderRestarts uint64  `json:"sender_restarts"`
	DegradedSecs   float64 `json:"degraded_seconds"`

	// Receive-path fault accounting: frames rejected before producing a
	// result, by failure class (parser truncation, unsupported protocol,
	// checksum failure, validation/classification refusal).
	RecvTruncated    uint64 `json:"recv_truncated"`
	RecvUnsupported  uint64 `json:"recv_unsupported"`
	RecvChecksumFail uint64 `json:"recv_checksum_fail"`
	RecvInvalid      uint64 `json:"recv_invalid"`

	// Results-stream accounting: of the valid responses offered to the
	// Results writer, the rows its stream accepted and the rows it
	// refused; the rest were held back by the output filter.
	// ResultsWritten is zero for a writer that does not count its rows
	// (see WrittenCounter).
	ResultsWritten uint64 `json:"results_written,omitempty"`
	RowsLost       uint64 `json:"rows_lost,omitempty"`

	// Scan-health accounting: the closed-loop rate controller's final
	// state, validated ICMP unreachables observed, and the interference
	// quarantine log (prefixes that went dark mid-scan and were dropped
	// from the probe rotation). CooldownActualSecs is how long the
	// adaptive cooldown really waited (>= cooldown_secs when responses
	// kept arriving, capped at cooldown_max_secs).
	AdaptiveRate        bool                `json:"adaptive_rate"`
	MinRatePPS          float64             `json:"min_rate_pps,omitempty"`
	FinalRatePPS        float64             `json:"controller_final_rate_pps,omitempty"`
	RateDecreases       uint64              `json:"rate_decreases,omitempty"`
	RateIncreases       uint64              `json:"rate_increases,omitempty"`
	UnreachObserved     uint64              `json:"icmp_unreach_observed,omitempty"`
	QuarantineSkipped   uint64              `json:"quarantine_skipped_probes,omitempty"`
	QuarantinedPrefixes []QuarantinedPrefix `json:"quarantined_prefixes,omitempty"`
	ParoleProbes        uint64              `json:"parole_probes,omitempty"`
	ParoleGrants        uint64              `json:"parole_grants,omitempty"`
	ParoleReleases      uint64              `json:"parole_releases,omitempty"`
	CooldownMaxSecs     float64             `json:"cooldown_max_secs,omitempty"`
	CooldownActualSecs  float64             `json:"cooldown_actual_secs,omitempty"`

	// Crash-safety accounting across interrupted runs: how many runs
	// contributed to this scan, when the first began, cumulative active
	// wall clock, whether this run ended on a graceful interrupt, and the
	// checkpoint file (if any) that carries the resumable state.
	Runs           int       `json:"runs"`
	FirstStartTime time.Time `json:"first_start_time"`
	CumulativeSecs float64   `json:"cumulative_secs"`
	Interrupted    bool      `json:"interrupted"`
	CheckpointFile string    `json:"checkpoint_file,omitempty"`
}

// QuarantinedPrefix is one interference-quarantine event: the prefix,
// its probe/response counts at quarantine time, when it happened
// (seconds since scan start), and the parole trail — budgeted re-probe
// attempts and, for transient blackouts, the release.
type QuarantinedPrefix struct {
	Prefix string  `json:"prefix"`
	Sent   uint64  `json:"sent"`
	Recv   uint64  `json:"recv"`
	AtSecs float64 `json:"at_secs"`

	ParoleAttempts int     `json:"parole_attempts,omitempty"`
	ParoleSent     uint64  `json:"parole_sent,omitempty"`
	ParoleRecv     uint64  `json:"parole_recv,omitempty"`
	Released       bool    `json:"released,omitempty"`
	ReleasedAtSecs float64 `json:"released_at_secs,omitempty"`
}

// Emit writes the metadata as a single indented JSON document.
func (m *Metadata) Emit(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
