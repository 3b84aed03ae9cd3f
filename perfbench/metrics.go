package main

// metricSpec names one reported metric. BENCHMARK.json lists the same
// metrics; the tests hold the two lists equal.
type metricSpec struct {
	name, unit string
	higher     bool // true when a higher value is better
}

// endToEnd are the metrics every workload reports with --trace 0. The
// unit of work behind throughput_per_s and cpu_us_per_op is a client
// carried through 24 h of pool generation (fleet-e9), a simulated
// Chronos round (shift-e11), a verified reply (wire-serve) or a
// completed exchange of a SyncRound (wire-sync); the operation behind
// latency_p50_ms is one Simulate, one six-arm pass, one request or one
// SyncRound.
// cpu_us_per_op counts the CPU time of the whole process, so on the
// wire workloads it holds client and server alike. setup_s,
// throughput_per_s, latency_p50_ms and cpu_us_per_op are scaled to the
// reference host speed (hostspeed.go).
var endToEnd = []metricSpec{
	{"setup_s", "s", false},
	{"throughput_per_s", "1/s", true},
	{"latency_p50_ms", "ms", false},
	{"heap_mb", "MB", false},
	{"cpu_us_per_op", "us", false},
}

// perLayer are the metrics every workload reports with --trace 1. A
// layer the workload does not exercise reports 0.
var perLayer = func() []metricSpec {
	var out []metricSpec
	add := func(name, unit string, higher bool) { out = append(out, metricSpec{name, unit, higher}) }
	for _, m := range modules {
		add("cpu."+m, "ratio", false)
	}
	add("resolver.cache_hits", "count", true)
	add("resolver.upstream_queries", "count", false)
	add("resolver.hits_per_upstream", "ratio", true)
	add("resolver.timeouts", "count", false)
	add("resolver.failures", "count", false)
	add("attack.planted_ratio", "ratio", true)
	for _, arm := range shiftArms {
		add("chronos.attempts_per_round."+arm.name, "ratio", false)
		add("chronos.resamples."+arm.name, "count", false)
		add("chronos.panics."+arm.name, "count", false)
		add("chronos.captures."+arm.name, "count", false)
		add("shiftsim.run_s."+arm.name, "s", false)
	}
	add("shiftsim.auth_rejected", "count", false)
	add("chronos.round_self_us", "us", false)
	add("ntpwire.decode_us", "us", false)
	add("ntpauth.verify_us.mac", "us", false)
	add("ntpauth.verify_us.nts", "us", false)
	add("wirenet.served", "count", true)
	add("wirenet.dropped", "count", false)
	add("wirenet.hostile_drop_ratio", "ratio", true)
	add("wirenet.mutex_wait_us_per_request", "us", false)
	for _, k := range kindNames {
		add("wire.rtt_p50_us."+k, "us", false)
		add("wire.rtt_p99_us."+k, "us", false)
	}
	for _, k := range kindNames {
		add("wire.cpu_us_per_request."+k, "us", false)
		add("wire.cpu_share."+k, "ratio", false)
	}
	add("wirenet.exchange_p50_us", "us", false)
	add("wirenet.exchange_p99_us", "us", false)
	add("wirenet.exchanges_per_round", "ratio", false)
	add("wirenet.exchange_timeouts", "count", false)
	add("sync.round_p99_ms", "ms", false)
	add("sync.updates", "count", true)
	add("sync.resamples", "count", false)
	add("sync.panics", "count", false)
	add("sync.panic_updates", "count", false)
	add("fleet.build_s", "s", false)
	add("fleet.simulate_s", "s", false)
	add("runtime.gc_cpu_frac", "ratio", false)
	add("runtime.alloc_bytes_per_op", "B", false)
	add("runtime.allocs_per_op", "count", false)
	add("proc.cpu_us_per_op", "us", false)
	add("trace.overhead_frac", "ratio", false)
	add("host.ref_slowdown", "ratio", false)
	return out
}()
