"""Set-up time of one workload in a fresh interpreter.

    python3 bench/setup_probe.py scan|ranges|oracle

Times ``import wsabsorb.cli`` plus one call of each public entry point the
workload uses, on a minimal input, so that lazily loaded dependencies are
charged here.  Prints the seconds; exits non-zero if a call goes wrong.
Only the standard library is imported before the clock starts.
"""

import contextlib
import io
import sys
import time


def main(workload: str) -> int:
    start = time.perf_counter()
    import wsabsorb.cli as cli

    amp = sys.modules["wsabsorb.amplitudes"]
    ora = sys.modules["wsabsorb.oracle"]
    spectral = sys.modules["wsabsorb.spectral"]
    units = sys.modules["wsabsorb.units"]
    if workload == "scan":
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["scan", "--v0", "1.2", "--rho", "1.8",
                             "--emin", "0.05", "--emax", "6", "--points", "2"])
        if code != 0:
            return 1
    elif workload == "ranges":
        # one bracket between the n = 13 and n = 14 right-family singularities
        spec = units.PotentialSpec(2.0, 0.3, 1.0)
        window = (13 ** 2 * 0.09 / 16.0, 14 ** 2 * 0.09 / 16.0)
        spectral.scan_ranges(spec, spectral.RangeCriterion.CPA_RANGE, window, 1e-3, 100)
    elif workload == "oracle":
        spec = units.PotentialSpec(1.2, 1.8, 1.0)
        tr = units.PotentialSpec(1.2, 1.8, 1.0, variant=units.Variant.TIME_REVERSED)
        if not ora.oracle_domain_ok(spec, 1.0):
            return 1
        ora.oracle_g_factors(spec, 1.0)
        amp.g_factors(amp.channel_params(spec, 1.0))
        ora.oracle_amplitudes(tr, 1.0)
        amp.amplitudes(tr, 1.0)
        ora.hermitian_oracle_amplitudes(1.2, 1.8, 1.0, 1.0)
        amp.hermitian_amplitudes(1.2, 1.8, 1.0, 1.0)
    else:
        return 2
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
