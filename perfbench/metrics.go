package main

import "sort"

// layers are the program's modules that CPU time and allocations are
// charged to, keyed by Go package (the root package munin is the
// "views" layer: typed Array/Matrix accessors and Program.Run).
var layers = []string{
	"views", "apps", "sim", "core", "lrc", "duq", "diffenc", "directory",
	"vm", "network", "wire", "rt", "obs", "nodeset", "other",
}

// latencyOps are the operations WithMetrics records (Stats.Latencies
// keys) that the benchmark reports under core.*.
var latencyOps = []string{"acquire", "release", "barrier", "fault", "remote_op"}

// msgKinds are the message kinds that carry at least 5% of some
// workload's messages; network.msgs.<kind> is reported for each of them
// on every workload.
var msgKinds = []string{
	"read-req", "read-reply", "update-batch", "update-ack",
	"copyset-query", "copyset-reply", "lock-acq", "lock-grant", "lock-own-notify",
	"barrier-arrive", "barrier-release", "dir-req", "dir-reply",
	"lrc-lock-acq", "lrc-lock-grant", "lrc-diff-req", "lrc-diff-resp",
}

// endToEnd are the untraced metrics (--trace 0), in report order.
var endToEnd = []string{"setup_s", "run_s", "messages", "wire_bytes", "allocs", "alloc_mb"}

// metricUnits declares every metric's unit; BENCHMARK.json lists the
// same names and units (the self-test holds the two together).
var metricUnits = func() map[string]string {
	u := map[string]string{
		"setup_s":    "s",
		"run_s":      "s",
		"messages":   "count",
		"wire_bytes": "bytes",
		"allocs":     "count",
		"alloc_mb":   "MiB",

		"virtual_s":                   "s",
		"runtime.unattributed_share":  "fraction",
		"bench.cpu_share":             "fraction",
		"gc.cpu_share":                "fraction",
		"gc.cycles":                   "count",
		"rt.syscall_share":            "fraction",
		"rt.monitor_wait_s":           "s",
		"rt.lane_lock_wait_s":         "s",
		"wire.encode_ns_per_msg":      "ns",
		"wire.size_ns_per_msg":        "ns",
		"wire.decode_ns_per_msg":      "ns",
		"wire.view_decode_ns_per_msg": "ns",
		"wire.encode_allocs_per_msg":  "count",
		"wire.decode_allocs_per_msg":  "count",
		"wire.bytes_per_msg":          "bytes",
		"diffenc.encode_ns_per_kb":    "ns",
		"diffenc.decode_ns_per_kb":    "ns",
		"lrc.diff_fetch_p50_ns":       "ns",
		"lrc.diff_fetch_p99_ns":       "ns",
		"lrc.diff_fetch_count":        "count",
		"network.sends":               "count",
		"network.bytes_per_msg":       "bytes",
		"lrc.intervals":               "count",
		"lrc.diff_fetches":            "count",
		"lrc.records":                 "count",
		"lrc.records_gc_ratio":        "fraction",
		"lrc.notices_sent":            "count",
		"lrc.notices_gc_ratio":        "fraction",
		"views.check_s":               "s",
		"trace.overhead_frac":         "fraction",
	}
	for _, l := range layers {
		u[l+".cpu_share"] = "fraction"
		u[l+".allocs_per_msg"] = "count"
	}
	for _, op := range latencyOps {
		u["core."+op+"_p50_ns"] = "ns"
		u["core."+op+"_p99_ns"] = "ns"
		u["core."+op+"_count"] = "count"
	}
	for _, k := range msgKinds {
		u["network.msgs."+k] = "count"
	}
	return u
}()

// perLayer returns the traced metrics (--trace 1): every declared
// metric that is not end-to-end, sorted by name.
func perLayer() []string {
	e2e := map[string]bool{}
	for _, n := range endToEnd {
		e2e[n] = true
	}
	var out []string
	for n := range metricUnits {
		if !e2e[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
