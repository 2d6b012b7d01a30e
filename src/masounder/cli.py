"""Command-line front end: scenario-driven simulation, scanning and estimation.

All outputs are CSV (plots, if wanted, are rendered externally). Exit codes:
0 success, 2 validation failure, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click
import numpy as np

from .beamform import NoPeakError, cbf_ma, cbf_ura, padp_ma, padp_ura
from .cfrfile import CfrFormatError, read_cfr, write_cfr, write_rows
from .channel import add_noise, gen_ma_cfr, gen_ura_cfr
from .compare import compare_arrays
from .geometry import scan_cosines, wrap_azimuth
from .patterns import (check_conjugate_symmetry, ma_power_pattern, ura_power_pattern,
                       uv_lattice)
from .scenario import Scenario, ScenarioError, dump_scenario, parse_scenario
from .sic import run_sic

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

EQUIVALENCE_TOL_DB = 1e-6


def _common_options(fn):
    """Add the --config, --out and --quiet options every command takes."""
    # Applied innermost first, so --help lists them from --config down.
    for option in (
            click.option("--quiet", is_flag=True, help="Suppress progress messages."),
            click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False),
                         help="Output directory."),
            click.option("--config", "config_path", required=True,
                         type=click.Path(exists=True, dir_okay=False),
                         help="Scenario JSON file.")):
        fn = option(fn)
    return fn


# Only the commands that draw noise take a seed.
_seed_option = click.option("--seed", default=0, type=int, help="RNG seed for noise.")


def _load(config_path: str, out_dir: str, quiet: bool) -> tuple[Scenario, Path]:
    scenario = parse_scenario(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_scenario(scenario, out / "scenario_normalized.json")
    if not quiet:
        click.echo(f"scenario loaded from {config_path}")
    return scenario, out


def _guarded(fn):
    """Map exception classes onto the documented exit codes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ScenarioError, CfrFormatError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except NoPeakError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)
    return wrapper


@click.group()
def main():
    """Wideband channel sounding with multiplicative arrays."""


def _write_csv(path: Path, header: str, x, y, level) -> None:
    """One line per cell of the broadcast shape of x, y and level, in C order,
    9 significant digits each. A column passed as one grid axis, not as a
    meshgrid, is formatted once per value of it; any other column per cell."""
    with open(path, "w") as fh:
        fh.write(header)
        write_rows(fh, ["%.9g"] * 3, x, y, level)


def _write_uv_pattern(path: Path, pattern) -> None:
    _write_csv(path, "u,v,level_db\n", pattern.u_axis[:, None], pattern.v_axis,
               pattern.level_db())


@main.command("synth-pattern")
@_common_options
@_guarded
def cmd_synth_pattern(config_path, out_dir, quiet):
    """Narrowband URA and MA power patterns on a (u, v) lattice."""
    scenario, out = _load(config_path, out_dir, quiet)
    if scenario.ura is None:
        raise ScenarioError("synth-pattern needs a URA geometry")
    wx, wy, wx_ma, wy_ma = scenario.steered_excitations()
    u_axis, v_axis = uv_lattice(scenario.pattern_lattice)
    ura_pat = ura_power_pattern(wx, wy, scenario.ura, u_axis, v_axis)
    _write_uv_pattern(out / "ura_pattern.csv", ura_pat)
    if scenario.ma is None:
        if not quiet:
            click.echo("no MA geometry; URA pattern only")
        return
    ma_pat = ma_power_pattern(wx_ma, wy_ma, scenario.ma, u_axis, v_axis)
    _write_uv_pattern(out / "ma_pattern.csv", ma_pat)
    if not (check_conjugate_symmetry(wx) and check_conjugate_symmetry(wy)):
        click.echo("warning: excitations not conjugate-symmetric; "
                   "equivalence check skipped", err=True)
        return
    if scenario.is_ura_equivalent_ma():
        deviation = float(np.max(np.abs(ura_pat.level_db() - ma_pat.level_db())))
        if not quiet:
            click.echo(f"max pattern deviation: {deviation:.3e} dB")
        if deviation > EQUIVALENCE_TOL_DB:
            click.echo(f"error: URA/MA pattern deviation {deviation:.3e} dB "
                       f"exceeds {EQUIVALENCE_TOL_DB} dB", err=True)
            sys.exit(EXIT_NUMERICAL)


@main.command("simulate")
@_common_options
@_seed_option
@_guarded
def cmd_simulate(config_path, out_dir, seed, quiet):
    """Generate per-element CFR files for the scenario's arrays."""
    scenario, out = _load(config_path, out_dir, quiet)
    if scenario.ura is None and scenario.ma is None:
        raise ScenarioError("simulate needs a URA or MA geometry")
    if scenario.ura is not None:
        cfr = gen_ura_cfr(scenario.paths, scenario.ura, scenario.freqs)
        if scenario.snr_db is not None and len(scenario.paths):
            cfr = add_noise(cfr, scenario.snr_db, seed)
        write_cfr(out / "ura_cfr.csv", cfr)
        if not quiet:
            click.echo(f"wrote {out / 'ura_cfr.csv'}")
    if scenario.ma is not None:
        ma_x, ma_y = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
        if scenario.snr_db is not None and len(scenario.paths):
            ma_x = add_noise(ma_x, scenario.snr_db, seed + 1)
            ma_y = add_noise(ma_y, scenario.snr_db, seed + 2)
        write_cfr(out / "ma_x_cfr.csv", ma_x)
        write_cfr(out / "ma_y_cfr.csv", ma_y)
        if not quiet:
            click.echo(f"wrote {out / 'ma_x_cfr.csv'} and {out / 'ma_y_cfr.csv'}")


def _write_beam_csv(path: Path, beam) -> None:
    u, v = scan_cosines(beam.theta_deg, wrap_azimuth(beam.phi_deg))
    _write_csv(path, "u,v,level_db\n", u, v, beam.level_db())


def _write_padp_csv(path: Path, padp) -> None:
    """A PADP cut, one line per azimuth and delay."""
    # azimuths in [0, 360), as paths.csv and comparison.csv write them
    _write_csv(path, "azimuth_deg,delay_ns,level_db\n", wrap_azimuth(padp.phi_deg[:, None]),
               padp.delay_s * 1e9, padp.level_db().T)


def _ura_scan(cfr, scenario: Scenario, grid, theta: float):
    """Beam and PADP cut of a URA CFR."""
    taper = scenario.ura_taper()
    return (cbf_ura(cfr, grid, scenario.freqs.f_center_hz, taper),
            padp_ura(cfr, theta, grid.phi_deg, scenario.pad_factor, taper=taper))


def _ma_scan(ma_x, ma_y, scenario: Scenario, grid, theta: float):
    """Beam and PADP cut of a pair of MA CFRs."""
    taper = scenario.ma_taper()
    return (cbf_ma(ma_x, ma_y, grid, scenario.freqs.f_center_hz, taper),
            padp_ma(ma_x, ma_y, theta, grid.phi_deg, scenario.pad_factor, taper=taper))


@main.command("beamscan")
@_common_options
@click.option("--cfr-dir", default=None, type=click.Path(file_okay=False),
              help="Directory holding CFR files (default: the output directory).")
@click.option("--theta", "theta_deg", default=None, type=float,
              help="PADP cut elevation in [0, 90] deg (default: compare.theta_deg).")
@_guarded
def cmd_beamscan(config_path, out_dir, quiet, cfr_dir, theta_deg):
    """Beam pattern at the center frequency and a PADP cut, per array."""
    scenario, out = _load(config_path, out_dir, quiet)
    src = Path(cfr_dir) if cfr_dir is not None else out
    theta = scenario.compare_theta_deg if theta_deg is None else theta_deg
    grid = scenario.scan_grid()
    # Every result is computed before any file is written. Each CFR is read
    # as an argument of the scan helper, so it is dropped when that returns.
    results = {}
    ura_file = src / "ura_cfr.csv"
    if ura_file.exists():
        results["ura"] = _ura_scan(read_cfr(ura_file), scenario, grid, theta)
    ma_x_file, ma_y_file = src / "ma_x_cfr.csv", src / "ma_y_cfr.csv"
    if ma_x_file.exists() and ma_y_file.exists():
        results["ma"] = _ma_scan(read_cfr(ma_x_file), read_cfr(ma_y_file), scenario,
                                 grid, theta)
    if not results:
        raise OSError(f"no CFR files found under {src}")
    for kind, (beam, padp) in results.items():
        _write_beam_csv(out / f"{kind}_beam.csv", beam)
        _write_padp_csv(out / f"{kind}_padp.csv", padp)
    if not quiet:
        click.echo(f"beam/PADP CSVs written to {out}")


@main.command("estimate")
@_common_options
@click.option("--cfr-dir", default=None, type=click.Path(file_okay=False),
              help="Directory holding MA CFR files (default: the output directory).")
@_guarded
def cmd_estimate(config_path, out_dir, quiet, cfr_dir):
    """Run the SIC estimator on MA CFR files and emit the path table."""
    scenario, out = _load(config_path, out_dir, quiet)
    src = Path(cfr_dir) if cfr_dir is not None else out
    ma_x_file, ma_y_file = src / "ma_x_cfr.csv", src / "ma_y_cfr.csv"
    if not (ma_x_file.exists() and ma_y_file.exists()):
        raise OSError(f"MA CFR files not found under {src}")

    def snapshot(q, padp):
        _write_padp_csv(out / f"ma_padp_iter{q}.csv", padp)

    # The CFRs are read as arguments and named nowhere here, so run_sic holds
    # the only references and they die at its first subtraction.
    report = run_sic(read_cfr(ma_x_file), read_cfr(ma_y_file), scenario.estimator_config(),
                     snapshot_hook=snapshot)
    with open(out / "paths.csv", "w") as fh:
        fh.write("iteration,power_db,delay_ns,elevation_deg,azimuth_deg,stop_reason\n")
        fh.writelines("%d,%.9g,%.9g,%.9g,%.9g,%s\n" % (
            p.iteration, p.amplitude_db, p.delay_s * 1e9, p.direction.theta_deg,
            p.direction.phi_deg, report.stop_reason) for p in report.paths)
    if not quiet:
        click.echo(f"{len(report.paths)} paths recovered "
                   f"(stop: {report.stop_reason}); table in {out / 'paths.csv'}")


@main.command("compare")
@_common_options
@_seed_option
@_guarded
def cmd_compare(config_path, out_dir, seed, quiet):
    """URA CBF vs MA SIC estimates on the same synthetic channel."""
    scenario, out = _load(config_path, out_dir, quiet)
    result = compare_arrays(scenario, seed)
    if result.count_mismatch:
        click.echo(f"warning: URA found {result.ura_count} paths, "
                   f"MA found {result.ma_count}", err=True)
    with open(out / "comparison.csv", "w") as fh:
        fh.write("path,ura_delay_ns,ura_azimuth_deg,ura_power_db,"
                 "ma_delay_ns,ma_azimuth_deg,ma_power_db,"
                 "err_delay_ns,err_azimuth_deg,err_power_db\n")
        fh.writelines(("%d" + ",%.9g" * 9 + "\n") % (
            row.index, row.ura.delay_s * 1e9, wrap_azimuth(row.ura.phi_deg),
            row.ura.level_db, row.ma.delay_s * 1e9, row.ma.direction.phi_deg,
            row.ma.amplitude_db, *row.errors) for row in result.rows)
    if not quiet:
        click.echo(f"comparison table in {out / 'comparison.csv'}")


if __name__ == "__main__":
    main()
