"""The three benchmark workloads: CLI calls made from a seed, and their warm-ups.

Every workload runs through ``diskarea.cli.main(argv)`` in process, with the
program's defaults for thread pools (no ``--workers`` is ever passed).  The
inputs are a pure function of the seed.  The sizes and radii the program
would pick by default are spelled out, so a later change of a default does
not silently change the workload.

Why each workload is here (the same reasons are in BENCHMARK.json):

* ``contraction``: the corpus sweep behind the area-contraction claim.  It is
  dominated by map generation, mollification and Fourier extraction,
  including the provenance hash, and never touches the pair sums or the
  series evaluators.
* ``area-methods``: all five estimators plus the closed form on exact
  families.  It is dominated by the Jacobian grid and the O(M^2) direct pair
  sum, and the closed forms give an exact reference for every value.
* ``proof-bounds``: the proof, Schwarz, equality, boundary and convexity
  suites.  They use the same layers in other ways (gap pair sums at M=512,
  pointwise harmonic evaluation, many small profile integrals), so a gain
  bought for the other two workloads at their expense shows here.

This module imports only the standard library at import time; the warm-ups
import ``diskarea`` when they run, so the set-up timing covers that import.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random

ORDER = "512"
RADII = "0.25,0.5,0.75,0.9"
MOLLIFY = ",".join(repr(2 * math.pi / k) for k in (32, 64, 128))
AREA_METHODS = "green-spectral,green-quadrature,kernel-direct,kernel-fft,jacobian,exact"


def _quiet_main(argv):
    """cli.main with its report and summary lines swallowed; raises unless it exits 0."""
    from diskarea.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"warm-up call diskarea {' '.join(argv)} exited {rc}")


def area_families(seed: int) -> tuple[str, str]:
    """A Mobius map with |a| in [0.2, 0.4] and a rotation with phi in [0, 2pi)."""
    rng = random.Random(seed)
    a = cmath.rect(rng.uniform(0.2, 0.4), rng.uniform(0.0, 2 * math.pi))
    phi = rng.uniform(0.0, 2 * math.pi)
    return f"mobius:{a.real:.6f}{a.imag:+.6f}j", f"rotation:{phi:.6f}"


# Each workload has calls(seed), a list of (argv, report rows the call must
# give), and warm_up(seed), one small call into every layer the calls use.
# Warm-ups go through cli.main where a small call exists; the proof suite has
# no small form, so its profile checks are called directly, with the
# arguments the runner itself passes.


def contraction_calls(seed):
    # 50 seeds x 3 mollification widths = 150 maps, at 4 radii each.
    argv = ["verify", "--suite", "contraction", "--seeds", f"{seed}..{seed + 49}",
            "--radii", RADII, "--mollify", MOLLIFY, "--order", ORDER, "--format", "jsonl"]
    return [(argv, 600)]


def contraction_warm_up(seed):
    _quiet_main(["verify", "--suite", "contraction", "--seeds", f"{seed}..{seed}",
                 "--radii", "0.5", "--mollify", "0.5", "--order", "16", "--format", "jsonl"])


def area_calls(seed):
    mobius, rotation = area_families(seed)
    argv = ["area", "--family", mobius, "--family", rotation, "--r", "0.5,0.9",
            "--method", AREA_METHODS, "--resolution", "4096", "--order", "64", "--format", "jsonl"]
    return [(argv, 2 * 2 * 6)]


def area_warm_up(seed):
    mobius, _ = area_families(seed)
    _quiet_main(["area", "--family", mobius, "--r", "0.5", "--method", AREA_METHODS,
                 "--resolution", "64", "--order", "8", "--format", "jsonl"])


PROOF_SUITES = (("proof", 49), ("schwarz", 15), ("equality", 96), ("boundary", 5))


def proof_calls(seed):
    out = [
        (["verify", "--suite", suite, "--seeds", f"{seed}..{seed + 19}",
          "--radii", RADII, "--order", ORDER, "--format", "jsonl"], rows)
        for suite, rows in PROOF_SUITES
    ]
    out.append((["verify", "--suite", "convexity", "--radii", RADII, "--format", "jsonl"], 20))
    return out


def proof_warm_up(seed):
    from diskarea import proof_checks
    from diskarea.circle_maps import make_random_homeomorphism

    bmap = make_random_homeomorphism(seed, roughness=0.5)
    proof_checks.cos_identity_residual(bmap, 0.5, n_samples=64)
    proof_checks.check_gap_double_integral(bmap, 0.5, 64)
    profile = proof_checks.random_profile(seed)
    proof_checks.check_reduction_chain(profile, 0.5)
    proof_checks.profile_gap_integral(proof_checks.reflect_profile(profile), 0.5)
    for suite, _ in PROOF_SUITES[1:]:
        _quiet_main(["verify", "--suite", suite, "--seeds", f"{seed}..{seed}",
                     "--radii", "0.5", "--order", "16", "--format", "jsonl"])
    _quiet_main(["verify", "--suite", "convexity", "--radii", "0.5", "--format", "jsonl"])


WORKLOADS = {
    "contraction": (contraction_calls, contraction_warm_up),
    "area-methods": (area_calls, area_warm_up),
    "proof-bounds": (proof_calls, proof_warm_up),
}
