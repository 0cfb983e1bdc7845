"""Assemble EXPERIMENTS.md from the freshest benchmark reports."""

from pathlib import Path

ROOT = Path(__file__).parent.parent
REPORTS = ROOT / "benchmarks" / "reports"

HEADER = """# EXPERIMENTS — paper vs. measured

Every figure and headline statistic of the paper's evaluation has a
benchmark under `benchmarks/` that reruns the experiment on the
simulated substrate, prints the figure as text, and asserts the
paper's qualitative shape. This file records, per artifact, what the
paper reports and what this reproduction measures. Regenerate with

```bash
pytest benchmarks/ --benchmark-only        # refreshes benchmarks/reports/
python tools/make_experiments_md.py        # rewrites this file
```

Campaigns fan out over the `repro.runner` process pool and reuse the
content-addressed result cache: set `REPRO_BENCH_WORKERS=N` (`0` = one
worker per core) and `REPRO_BENCH_CACHE=.repro-cache` to parallelize
the benches and make re-runs free (results are deterministic per seed,
so worker count never changes a figure). See README "Parallel
campaigns and result caching" for cache layout and invalidation.

Measured numbers below come from the default bench scale (150 s runs,
2 seeds; channel-only probes 300 s x 8 seeds). Absolute values are not
expected to match the Munich testbed — the substrate is a calibrated
simulator — but who wins, by roughly what factor, and where the
crossovers fall should match; deviations are called out explicitly.

Every number in this file rests on the repo's reproducibility
invariants, which CI enforces with the `repro.lint` static pass
(`python -m repro.lint src tools examples`): no entropy or wall-clock
reads outside the seeded `RngStreams` path (RPL001), unit conversions
through `repro.util.units` only (RPL002), no leaked event-loop handles
(RPL003), only picklable callables across the campaign process
boundary (RPL004), and no hard-coded seed fallbacks (RPL005).
Deliberate exceptions — e.g. wall-clock campaign telemetry — carry an
inline `# repro-lint: ignore[RPL001]` pragma. See README "Static
analysis" for the rule catalogue.

Regenerating is quick: the single-run fast path (allocation-free
event heap, slotted packet objects, batched RNG draws, precomputed
radio geometry — see README "Performance") made the headline session
2.1x faster and the quick-scale benches 2-5x faster than the first
tuned release, with bit-identical packet logs where draw order is
preserved; `repro profile` locates the current hot spots.

On top of that, campaigns batch whole seed sweeps: work units that
are cache-key-equal modulo seed execute as one struct-of-arrays task
(`repro.runner.batch` + `repro.cellular.batch`), which runs a Fig.
4-style 8-seed channel sweep ~3x faster than the scalar path (0.99 s
-> 0.33 s measured by `benchmarks/test_batch_sweep.py`, which gates
on >= 2x) while staying bit-identical — the dedicated `fingerprints`
CI job pins packet-for-packet equality across seven scenario configs.
Per-commit bench wall times are archived as `BENCH_<sha>.json`
artifacts (see `tools/bench_compare.py` trend mode).

"""

SECTIONS = [
    (
        "Fig. 4 — handover frequency and execution time",
        "fig4_handover",
        """Paper: aerial HO frequency about an order of magnitude above
ground (up to 0.7 HO/s), urban above rural; most HETs under the 3GPP
49.5 ms threshold, with outliers — concentrated in the air — ranging
up to 4 s.

Measured shape: air/ground ratio 4-10x depending on environment and
seed, urban air above rural air, HET median ~30 ms with air-biased
outliers into the seconds. Matches.""",
    ),
    (
        "Fig. 5 — one-way latency CDFs",
        "fig5_latency",
        """Paper: ~99 % of ground packets below 100 ms, ~96 % in the air,
with aerial outliers beyond 1 s.

Measured shape: ground ~99-100 % below 100 ms, air ~90-97 %, aerial
tail reaching past 1 s (handover outages + altitude dropouts).
Matches.""",
    ),
    (
        "Fig. 6 — goodput per bitrate-control method",
        "fig6_goodput",
        """Paper (means): urban static 25 / SCReAM 21 / GCC 19 Mbps; rural
SCReAM 10.5 / GCC 8.5 / static 8 Mbps.

Measured shape: urban static ~25 on top and both CCs well below the
static pick; rural SCReAM above the static 8 Mbps pick. **Deviation:**
our SCReAM averages ~11-13 Mbps urban (paper 21) — the false-loss +
handover back-offs weigh more heavily in the simulated channel, so
urban SCReAM lands below GCC instead of above it. The rural ordering
(SCReAM > static, adaptive methods track the fluctuating capacity)
matches.""",
    ),
    (
        "Fig. 7 — FPS, SSIM and playback-latency CDFs",
        "fig7_video",
        """Paper: CCs deviate from 30 FPS more than static; SSIM >= 0.5 for
98.3-99.6 % of frames; playback latency under 300 ms 30-90 % (urban)
and 55-85 % (rural) of the time, with SCReAM urban at ~38 % and
SCReAM rural ~85 %.

Measured shape: static holds 30 FPS best; SSIM >= 0.5 typically
93-99 %; SCReAM urban latency collapses (~25-50 % under 300 ms,
driven by its queue-discard sequence holes at 25 Mbps) while SCReAM
rural stays high (~80-95 %) — the paper's urban/rural SCReAM
crossover. **Deviation:** our GCC rural latency stays good, whereas
the paper's GCC rural was the worst rural curve; our GCC is slightly
more conservative than libwebrtc's and does not push the rural link
into sustained queueing.""",
    ),
    (
        "Fig. 8 — one GCC flight (time series)",
        "fig8_timeseries",
        """Paper: network-latency spikes precede handovers; playback latency
rises whenever network latency exceeds the 150 ms jitter-buffer
budget.

Measured shape: the bench asserts a >2x network-latency spike within
2 s of a handover and playback latency strictly above the network
floor. Matches.""",
    ),
    (
        "Fig. 9 — latency ratio around handovers",
        "fig9_ho_ratio",
        """Paper: max/min one-way-latency ratio in the 1 s window *before* a
handover averages ~8x (outliers to 37x); *after*, ~5x.

Measured shape: before-window mean above after-window mean with heavy
before-window outliers. This emerges from the radio model: the serving
cell's fast fade is what both degrades capacity and triggers the A3
event. Matches.""",
    ),
    (
        "Fig. 10 — operators P1 vs P2 (rural)",
        "fig10_operators",
        """Paper: P2's denser rural deployment yields clearly more capacity
and more frequent handovers than P1.

Measured shape: P2 capacity >= 1.3x P1 and P2 HO rate >= P1. Matches.""",
    ),
    (
        "Fig. 12 — video performance per operator (rural)",
        "fig12_mno",
        """Paper (Appendix A.3): the adaptive methods exploit P2's extra
capacity (higher goodput, better SSIM); more capacity does *not*
improve SCReAM's playback latency (its feedback issues worsen at
higher bitrates).

Measured shape: SCReAM and GCC goodput clearly higher over P2, static
pinned at its 8 Mbps pick, SCReAM latency no better over P2. Matches.""",
    ),
    (
        "Fig. 13 — ping RTT by altitude band",
        "fig13_altitude",
        """Paper: no clear RTT trend below 100 m; above 100 m the proportion
of high-RTT outliers increases.

Measured shape: band medians within ~40 % of each other below 100 m;
the >300 ms outlier tail grows in the 101-140 m band (altitude-gated
interference dropouts plus handover outages). The effect is weaker
than the paper's because unloaded 92-byte pings barely queue even
through a collapsed-capacity episode — only full outages move them.""",
    ),
    (
        "Headline statistics — PER",
        "stats_per",
        """Paper: PER 0.06-0.07 %, drops mostly consecutive.

Measured: urban ~0.08 % with mean burst ~2.6 packets — matching the
paper's level and burstiness. Rural runs measure higher (~0.4 %)
because multi-second HET outliers at 8 Mbps occasionally overflow
even the deep buffer; the paper's rural PER stayed at 0.06-0.07 %.""",
    ),
    (
        "Headline statistics — stalls per minute (urban)",
        "stats_stalls",
        """Paper: static 0.11, SCReAM 0.89, GCC 1.37 stalls/min.

Measured (default scale): static 0.25, SCReAM 0.50, GCC 0.00
stalls/min. SCReAM stalls the most of the adaptive methods (its
queue discards skip frames), as in the paper. **Deviation:** our GCC
avoids stalls entirely — its slightly conservative rate keeps the
radio queue drained — whereas the paper's GCC stalled most (1.37/min).
Absolute rates are lower across the board: the simulated campaign
draws fewer multi-second HET outliers per minute than the real one.""",
    ),
    (
        "Headline statistics — CC ramp-up",
        "stats_rampup",
        """Paper: ~12 s (GCC) and ~25 s (SCReAM) from start to the 25 Mbps
target.

Measured (clean 40 Mbps link, the CCs' intrinsic start-up phase): GCC
~12 s — matching almost exactly — and SCReAM slower than GCC at
~17 s (paper 25 s; our RFC 8298 fast-increase is slightly more
aggressive than Ericsson's build). Ordering and scale match.""",
    ),
    (
        "Ablation — SCReAM RFC 8888 ack window (64 vs 256)",
        "ablation_ackwindow",
        """Paper (Section 4.2.1): with the default 64-packet window, packets
"remain unacknowledged" above ~7 Mbps and SCReAM "lower[s] its bitrate
needlessly"; the authors widen the window to 256.

Measured: the 64-packet window produces far more false losses per
minute than 256, costing goodput. The mechanism is reproduced
end-to-end (receiver-side bounded report window -> sender-side
below-window loss declaration).""",
    ),
    (
        "Ablation — jitter buffer depth and drop-on-latency (App. A.4)",
        "ablation_jitterbuffer",
        """Paper: 150 ms buffering is one of the two main latency
contributors; Appendix A.4 proposes `drop-on-latency` for RP.

Measured: median playback latency rises with the configured depth;
150 ms keeps the median under 300 ms; drop-on-latency never worsens
the median and discards late packets during congested stretches.""",
    ),
    (
        "Ablation — A3 handover parameters (Section 5)",
        "ablation_a3",
        """Paper: hysteresis / time-to-trigger "can be optimized for aerial
scenarios" to reduce HO frequency and ping-pong.

Measured: HO rate and ping-pong counts fall monotonically as
hysteresis/TTT grow, at mildly increasing delay tails (longer stays
on degrading cells).""",
    ),
    (
        "Ablation — uplink buffer depth (bufferbloat)",
        "ablation_buffers",
        """Paper: deep operator buffers absorb radio losses and convert them
into delay (Section 4.1, Section 5 AQM discussion).

Measured: shrinking the buffer to AQM-like depths cuts the OWD tail
but surfaces the drops the deep buffer hid. The latency/loss trade
matches the bufferbloat literature the paper cites.""",
    ),
    (
        "Extension — DAPS make-before-break handovers (Section 5)",
        "extension_daps",
        """Paper prediction: DAPS "avoid[s] link disruptions in the air and
could hence remove the observed latency spikes".

Measured: with `make_before_break=True` the handover rate is
unchanged but the OWD tail shrinks and latency compliance improves —
only the radio-quality dip remains, the execution outage is gone.""",
    ),
    (
        "Extension — multipath over two operators (Section 5)",
        "extension_multipath",
        """Paper prediction: parallel links to multiple operators "help
improve the reliability of transmissions when one of the underlying
networks is experiencing deteriorations".

Measured: duplicating every packet over independent P1+P2 channels
cuts the OWD p99 and removes nearly all latency violations at 2x the
radio cost; round-robin splitting gives no outage protection.""",
    ),
    (
        "Extension — fleet density (shared-cell QoE)",
        "fleet_density",
        """Paper gap: every measurement flies one UAV with the cells to itself;
Section 5 only speculates about scaling to RPAV fleets.

Measured: with N sessions sharing one layout (30 m spread, urban,
air, GCC), per-session goodput and granted PRB share fall
monotonically with density while time under congestion rises; the
load-balancing offsets spread the fleet (peak 3 sessions/cell at
N=4 over a 2-cell-deep hot zone) and GCC absorbs the lost capacity
by lowering bitrate rather than queueing, so latency compliance
holds while goodput degrades. A fleet of one reproduces the
single-session pipeline bit for bit.""",
    ),
    (
        "Extension — command/control vs video latency",
        "extension_control",
        """Related work cited by the paper measures control-signal latency
in the tens of milliseconds against video latencies 10-100x larger
over the same link.

Measured: 50 Hz command traffic rides the lightly-loaded downlink at
~20 ms median while video playback sits at ~200-300 ms and all flows
degrade together around handovers (shared radio). Matches.""",
    ),
    (
        "Harness — batched seed sweeps (batched vs scalar)",
        "batch_sweep",
        """Not a paper figure: the execution-harness benchmark behind the
campaign layer's struct-of-arrays batching. It runs the same 8-seed
urban-air channel sweep through the scalar runner and the batched
runner, asserts the two are bit-identical (uplink samples, altitudes,
handover logs), and gates the speedup at >= 2x (measured ~3x).""",
    ),
    (
        "Harness — fleet scale (one engine, golden-checked)",
        "fleet_scale",
        """Not a paper figure: the harness benchmark behind the shared-cell
fleet engine. It runs a deliberately dense 64-member fleet (load
balancing disabled so 43 members pile onto one cell — the regime
where a per-member allocation would go quadratic) through
`run_fleet`, the only fleet engine, after checking one run against
its golden digest (`fleet/dense-n64` in
`tests/golden/fingerprints.json`, keyed by numerics environment). The
speed gates live outside the bench: CI's bench-smoke job compares the
recorded time with `benchmarks/baseline.json`, and the `fleet-dense`
workload of `BENCHMARK.json` times the same engine end to end. The
dict/loop reference engine this bench used to time against (1.49 s
vs 0.41 s, 3.6x) was deleted once the golden digests pinned the
output.""",
    ),
]

#: Hand-written text that follows a section's bench output, keyed by
#: report name.
EPILOGUES = {
    "fig8_timeseries": """The same handover→latency coupling now falls out of the diagnosis
layer without any figure-specific code: on the Fig. 8 scenario,

```bash
repro diagnose --cc gcc --duration 60 --seed 1
```

reports the playback-latency SLO (300 ms) violated in the seconds
straddling a handover, with the handover execution ranked as primary
cause ahead of the controller's own rate cut — i.e. the paper's causal
reading of the time series, recovered automatically from the trace.
At campaign scale, `runner.diagnosis.attribution_fraction(
"playback_latency", "handover")` gives the share of latency violations
attributable to handovers (the Fig. 9 framing).

This attribution chain is stringly typed end to end: the channel emits
`cell.congestion` / `handover.execution` trace records and the
diagnosis layer matches those names back out of the trace. A silent
rename on either side would not crash — it would quietly zero the
handover attribution and shift Fig. 8/9's causal story to the
runner-up cause. The RPL008 trace-schema check guards exactly this:
every emitted name must be registered in `repro/obs/schema.py` and
every name a `repro.obs` consumer matches must be emitted somewhere,
so the rename is a lint failure instead of a plausible-looking wrong
attribution (pinned by the seeded-typo test in
`tests/test_lint_project.py`).""",
}


def main() -> None:
    parts = [HEADER]
    for title, report_name, commentary in SECTIONS:
        parts.append(f"## {title}\n")
        parts.append(commentary.strip() + "\n")
        report_path = REPORTS / f"{report_name}.txt"
        if report_path.exists():
            parts.append("Latest bench output:\n")
            parts.append("```")
            parts.append(report_path.read_text().rstrip())
            parts.append("```\n")
        else:
            parts.append(f"_(run `pytest benchmarks/` to produce {report_name}.txt)_\n")
        if report_name in EPILOGUES:
            parts.append(EPILOGUES[report_name].strip() + "\n")
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"wrote EXPERIMENTS.md ({len(SECTIONS)} sections)")


if __name__ == "__main__":
    main()
