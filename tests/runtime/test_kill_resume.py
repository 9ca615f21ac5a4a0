"""End-to-end crash-safe resume: SIGKILL a campaign subprocess mid-run,
resume it, and require bit-identical results to an uninterrupted run."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.cache import ResultCache

_DRIVER = '''
import csv
import json
import sys
import time
from pathlib import Path

from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner


@register_job_runner("kr.slow_draw")
def _slow_draw(spec, rng):
    time.sleep(float(spec.param("sleep_s", "0.15")))
    return {"seed": spec.seed, "draw": float(rng.random())}


def main():
    cache_dir, n_jobs, mode, out = sys.argv[1:5]
    specs = [
        JobSpec.with_params("kr.slow_draw", {"sleep_s": "0.15"}, seed=i)
        for i in range(10)
    ]
    config = CampaignConfig(
        cache_dir=Path(cache_dir), n_jobs=int(n_jobs), campaign_seed=3
    )
    result = run_campaign(specs, config, resume=(mode == "resume"))
    out = Path(out)
    payload = {
        "fingerprints": [spec.fingerprint() for spec in specs],
        "metrics": result.metrics,
        "resumed": result.manifest.resumed,
        "completed": result.manifest.completed,
        "campaign": result.manifest.campaign,
    }
    out.with_suffix(".json").write_text(json.dumps(payload, sort_keys=True))
    with out.with_suffix(".csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["fingerprint", "seed", "draw"])
        for spec, metrics in zip(specs, result.metrics):
            writer.writerow([spec.fingerprint(), metrics["seed"], metrics["draw"]])


main()
'''


def _run_driver(script, cache_dir, n_jobs, mode, out, env):
    subprocess.run(
        [sys.executable, str(script), str(cache_dir), str(n_jobs), mode, str(out)],
        check=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_sigkill_then_resume_is_bit_identical(tmp_path, n_jobs):
    script = tmp_path / "driver.py"
    script.write_text(_DRIVER)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    # Uninterrupted reference run in its own cache.
    ref_cache = tmp_path / "ref-cache"
    ref_out = tmp_path / "ref"
    _run_driver(script, ref_cache, n_jobs, "fresh", ref_out, env)
    reference = json.loads(ref_out.with_suffix(".json").read_text())
    assert reference["completed"] == 10

    # Victim run: SIGKILL once at least 3 results have been cached.
    victim_cache = tmp_path / "victim-cache"
    victim_out = tmp_path / "victim"
    proc = subprocess.Popen(
        [
            sys.executable, str(script), str(victim_cache), str(n_jobs),
            "fresh", str(victim_out),
        ],
        env=env,
    )
    deadline = time.monotonic() + 60.0
    try:
        while time.monotonic() < deadline:
            if len(ResultCache(victim_cache, campaign_seed=3)) >= 3:
                break
            if proc.poll() is not None:
                pytest.fail("victim campaign finished before it could be killed")
            time.sleep(0.02)
        else:
            pytest.fail("victim campaign never cached 3 results")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    cached_before_resume = len(ResultCache(victim_cache, campaign_seed=3))
    assert 3 <= cached_before_resume < 10

    # Resume in the same cache; must converge to the reference bit-for-bit.
    _run_driver(script, victim_cache, n_jobs, "resume", victim_out, env)
    resumed = json.loads(victim_out.with_suffix(".json").read_text())
    assert resumed["resumed"] > 0
    assert resumed["resumed"] + resumed["completed"] == 10
    assert resumed["fingerprints"] == reference["fingerprints"]
    assert resumed["metrics"] == reference["metrics"]
    assert resumed["campaign"] == reference["campaign"]
    assert (
        victim_out.with_suffix(".csv").read_bytes()
        == ref_out.with_suffix(".csv").read_bytes()
    )
