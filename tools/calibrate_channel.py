"""Channel-only calibration probe: HO rate + capacity stats per scenario."""
import numpy as np
from repro.core.config import ScenarioConfig
from repro.experiments.probes import channel_probe_seed
from repro.util.units import to_mbps, to_ms

def probe(env, plat, operator="P1", seeds=(1,2,3,4,5), duration=360.0):
    hos, caps, het_all = [], [], []
    for seed in seeds:
        cfg = ScenarioConfig(environment=env, platform=plat, operator=operator, duration=duration, seed=seed)
        result = channel_probe_seed(cfg)
        hos.append(len(result.handovers)/duration)
        caps.extend(result.uplink_samples)
        het_all.extend(e.execution_time for e in result.handovers)
    caps = to_mbps(np.array(caps))
    print(f"{env:5s} {plat:6s} {operator}: HO/s={np.mean(hos):.3f}  cap Mbps p10/p50/p90={np.percentile(caps,10):.1f}/{np.percentile(caps,50):.1f}/{np.percentile(caps,90):.1f} mean={caps.mean():.1f}", end="")
    if het_all:
        het = to_ms(np.array(het_all))
        print(f"  HET med={np.median(het):.0f}ms p95={np.percentile(het,95):.0f}ms max={het.max():.0f}ms n={len(het)}")
    else:
        print("  (no HOs)")

for env in ("urban","rural"):
    for plat in ("air","ground"):
        probe(env, plat)
probe("rural","air","P2")
