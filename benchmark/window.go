package main

import (
	"fmt"
	"sort"
)

// window is what one untraced measured window produced: the six
// end-to-end figures plus the client- and server-side observations the
// per-layer ledger needs.
type window struct {
	attempted, failed int64

	setupS     float64
	opsPerS    float64   // quiet-decile second
	p50Us      float64   // quiet-decile second
	p90Us      float64   // quiet-decile second
	latUs      []float64 // ascending; one entry per latency sample
	cpuUsPerOp float64   // process under test, quiet-decile second
	rssMB      float64   // process under test, peak

	// The same figures over the whole window: the window.* rows, and what
	// the ledger sets the traced depths against.
	windowOpsPerS    float64
	windowCPUUsPerOp float64

	clientCPUUsPerOp float64 // the load generator's own CPU per op
	lateUs           []float64
	sysCPUShare      float64
	ctxPerKop        float64
	ops              int64 // ops completed inside the window

	violations []string // first few oracle failures, for the report
	notes      []string // recorded choices: sizes, data-dir kind, ...
}

// maxViolationsKept bounds the report, not the count: every violation
// still increments failed.
const maxViolationsKept = 5

// fail records one oracle violation costing n ops.
func (w *window) fail(n int64, format string, args ...any) {
	w.failed += n
	if len(w.violations) < maxViolationsKept {
		w.violations = append(w.violations, fmt.Sprintf(format, args...))
	}
}

func (w *window) note(format string, args ...any) {
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
}

// endToEnd renders the six contract metrics.
func (w *window) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":       w.setupS,
		"ops_per_s":     w.opsPerS,
		"op_p50_us":     w.p50Us,
		"op_p90_us":     w.p90Us,
		"cpu_us_per_op": w.cpuUsPerOp,
		"rss_mb":        w.rssMB,
	}
}

// setSamples folds the window's samples into the throughput, latency and
// CPU figures: sample i completed at endNs[i] after the window began,
// carried weights[i] ops and measured latUs[i]; cpu are readings of the
// process under test about a second apart and windowCPUS is what it burnt
// over the whole window. Only the first windowS whole seconds count. Each
// end-to-end figure is its quiet-decile second (see stats.go); the
// whole-window sample is kept, sorted, for the window.* and client.* rows.
func (w *window) setSamples(endNs []int64, weights []int32, latUs []float64, windowS int, cpu []cpuPoint, windowCPUS float64) {
	w.opsPerS = quietDecile(secondRates(endNs, weights, windowS), false)
	ps := secondPercentiles(endNs, latUs, windowS, 50, 90)
	w.p50Us, w.p90Us = quietDecile(ps[0], true), quietDecile(ps[1], true)
	var inWindow, all int64
	for i, off := range endNs {
		all += int64(weights[i])
		if off >= 0 && off < int64(windowS)*1e9 {
			inWindow += int64(weights[i])
		}
	}
	w.windowOpsPerS = float64(inWindow) / float64(windowS)
	w.windowCPUUsPerOp = windowCPUS * 1e6 / float64(all)
	w.cpuUsPerOp = w.windowCPUUsPerOp
	if perSecond := secondCPUPerOp(cpu, endNs, weights); len(perSecond) > 0 {
		w.cpuUsPerOp = quietDecile(perSecond, true)
	}
	sort.Float64s(latUs)
	w.latUs = latUs
}

// clientRows fills the window.* and client.* per-layer rows: the
// whole-window figures the quiet decile leaves out, the tail percentiles
// too noisy to gate, and the figures that say whether the generator
// itself was the ceiling.
func (w *window) clientRows(rows map[string]float64) {
	rows["window.ops_per_s"] = w.windowOpsPerS
	rows["window.op_p50_us"] = percentile(w.latUs, 50)
	rows["window.op_p90_us"] = percentile(w.latUs, 90)
	rows["window.cpu_us_per_op"] = w.windowCPUUsPerOp
	rows["client.op_p99_us"] = percentile(w.latUs, 99)
	rows["client.op_p999_us"] = percentile(w.latUs, 99.9)
	rows["client.cpu_us_per_op"] = w.clientCPUUsPerOp
	rows["client.samples"] = float64(len(w.latUs))
	if len(w.lateUs) > 0 {
		rows["client.late_p99_us"] = percentile(w.lateUs, 99)
	}
	rows["server.sys_cpu_share"] = w.sysCPUShare
	rows["server.ctx_switches_per_kop"] = w.ctxPerKop
}

// serverDelta turns two /proc samples of the server into the window's
// RSS, sys share and context-switch figures.
func (w *window) serverDelta(before, after procUsage) {
	cpu := after.cpuS() - before.cpuS()
	w.rssMB = after.hwmMB
	if cpu > 0 {
		w.sysCPUShare = (after.sysS - before.sysS) / cpu
	}
	w.ctxPerKop = float64(after.ctxSwitches-before.ctxSwitches) * 1e3 / float64(w.ops)
}
