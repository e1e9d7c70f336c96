"""Command line driver for the folded-architecture synthesis pipeline.

Subcommands mirror the pipeline stages so each stage can be run and
inspected on its own: build-pg, expand, fold, schedule, simulate, emit,
run (all-in-one), verify.  Every run is fully deterministic: identical
parameters produce byte-identical artifact directories.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path

from .circulant import (
    CirculantBipartiteGraph,
    SelfCheckError,
    choose_alpha,
    divisors,
    expand_circulant,
    is_int,
    json_value,
)
from .emit import (
    FORMATS,
    _json_text,
    _manifest_text,
    emit_graph_json,
    emit_manifest_json,
    render_run_files,
    sha256_text,
    write_run_directory,
)
from .folding import (
    PIPELINE_LEVELS,
    FoldPlan,
    compute_rho,
    cross_fold_endpoints,
    generate_folded_sequence,
    pad_dummy_offset,
    verify_balance,
)
from .projective import PgParams, build_pg_graph, verify_pg_incidence
from .schedule import full_timing
from .simulator import (
    RunDirectory,
    SimReport,
    SimulationStructureError,
    _field,
    check_dataflow_equivalence,
    measure_throughput,
    read_json,
    simulate,
    summarize,
)

__all__ = ["main", "UsageError"]

DEFAULTS = {
    "geometry": None,
    "graph": None,
    "q": "auto",
    "alpha": None,
    "design_option": 1,
    "T": 1,
    "delta": 1,
    "pipeline": "none",
    "out": None,
    "emit": list(FORMATS),
    "target_f": [4, 8],
    "iterations": 1,
}


class UsageError(Exception):
    """A bad flag or config value; the message names the precondition
    violated and the nearest valid choices."""


# ---------------------------------------------------------------------------
# settings


def _parse_geometry(text: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(
            f"--geometry expects three comma-separated integers n,p,s, got {text!r}"
        )
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise UsageError(
            f"--geometry expects three comma-separated integers n,p,s, got {text!r}"
        ) from None


def _parse_int_or_auto(text: str, flag: str) -> int | str:
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"{flag} expects a positive integer or 'auto', got {text!r}") from None
    if value < 1:
        raise UsageError(f"{flag} expects a positive integer or 'auto', got {text!r}")
    return value


def _parse_emit(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    bad = sorted(set(parts) - set(FORMATS))
    if bad or not parts:
        raise UsageError(
            f"--emit expects a comma-separated subset of {','.join(FORMATS)}, got {text!r}"
        )
    return [f for f in FORMATS if f in parts]


def _validated(settings: dict) -> dict:
    if settings["geometry"] is not None:
        geometry = settings["geometry"]
        if isinstance(geometry, str):
            geometry = _parse_geometry(geometry)
        if not (
            isinstance(geometry, (list, tuple))
            and len(geometry) == 3
            and all(is_int(v) for v in geometry)
        ):
            raise UsageError(f"geometry must be three integers n,p,s, got {geometry!r}")
        settings["geometry"] = list(geometry)
    for key in ("graph", "out"):
        if not (settings[key] is None or isinstance(settings[key], str)):
            raise UsageError(f"{key} must be a path, got {settings[key]!r}")
    for key, flag in (("q", "--q"), ("alpha", "--alpha")):
        value = settings[key]
        if isinstance(value, str):
            settings[key] = _parse_int_or_auto(value, flag)
        elif not ((is_int(value) and value >= 1) or (key == "alpha" and value is None)):
            raise UsageError(
                f"{flag} expects a positive integer or 'auto', got {value!r}"
            )
    if isinstance(settings["emit"], str):
        settings["emit"] = _parse_emit(settings["emit"])
    elif not (
        isinstance(settings["emit"], list)
        and settings["emit"]
        and all(isinstance(f, str) for f in settings["emit"])
        and set(settings["emit"]) <= set(FORMATS)
    ):
        raise UsageError(
            f"emit must be a non-empty subset of {list(FORMATS)}, got {settings['emit']!r}"
        )
    else:
        settings["emit"] = [f for f in FORMATS if f in settings["emit"]]
    target = settings["target_f"]
    if not (
        isinstance(target, (list, tuple))
        and len(target) == 2
        and all(is_int(v) for v in target)
        and 1 <= target[0] <= target[1]
    ):
        raise UsageError(
            f"target_f must be two integers [lo, hi] with 1 <= lo <= hi, got {target!r}"
        )
    settings["target_f"] = list(target)
    for key in ("design_option", "T", "delta", "iterations"):
        if not is_int(settings[key]):
            raise UsageError(f"{key} must be an integer, got {settings[key]!r}")
    if settings["design_option"] not in (1, 2):
        raise UsageError(
            f"design option must be 1 or 2, got {settings['design_option']}"
        )
    if settings["pipeline"] not in PIPELINE_LEVELS:
        raise UsageError(
            f"pipeline level must be one of {', '.join(PIPELINE_LEVELS)}, "
            f"got {settings['pipeline']!r}"
        )
    if settings["iterations"] < 1:
        raise UsageError(f"iterations must be >= 1, got {settings['iterations']}")
    return settings


def resolve_settings(args: argparse.Namespace) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    settings = {key: (list(v) if isinstance(v, list) else v) for key, v in DEFAULTS.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise UsageError(f"config file {path} not found")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError("config file root must be a JSON object")
        unknown = sorted(set(data) - set(DEFAULTS))
        if unknown:
            raise UsageError(
                f"unknown config keys {unknown}; valid keys are {sorted(DEFAULTS)}"
            )
        settings.update(data)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return _validated(settings)


# ---------------------------------------------------------------------------
# pipeline assembly


def _incidence_failures(
    graph: CirculantBipartiteGraph, geometry: tuple[int, int, int] | None
) -> tuple[str, ...] | None:
    """What ``verify_pg_incidence`` finds wrong with a graph built from
    ``geometry`` (n, p, s), checked on its real J and offsets when it was
    expanded, or None when there is no geometry, as nothing can be
    checked.  A geometry that names no projective space raises
    ValueError."""
    if geometry is None:
        return None
    if graph.is_expanded:
        graph = CirculantBipartiteGraph.plain(graph.real_order, graph.real_base_offsets)
    return verify_pg_incidence(graph, PgParams(*geometry)).failures


def _acquire_graph(settings: dict) -> CirculantBipartiteGraph:
    geometry, graph_file = settings["geometry"], settings["graph"]
    if (geometry is None) == (graph_file is None):
        raise UsageError(
            "exactly one input is required: --geometry n,p,s or --graph FILE"
        )
    if geometry is not None:
        try:
            graph = build_pg_graph(PgParams(*geometry))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        failures = _incidence_failures(graph, geometry)
    else:
        path = Path(graph_file)
        if not path.is_file():
            raise UsageError(f"graph file {path} not found")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            graph = CirculantBipartiteGraph.from_json_dict(data)
            geometry = graph.geometry
            failures = _incidence_failures(graph, geometry)
        except ValueError as exc:
            raise UsageError(f"graph file {path} is not a valid graph: {exc}") from None
    if failures:
        n, p, s = geometry
        raise SelfCheckError(
            f"incidence self-check failed for P({n}, GF({p}^{s})): " + "; ".join(failures[:3])
        )
    return graph


def _alpha_candidates_for_divisibility(order: int, q: int, count: int = 3) -> list[int]:
    first = (q - order % q) % q
    if first == 0:
        first = q
    return [first + i * q for i in range(count)]


def _divisor_table(order: int) -> str:
    return ", ".join(f"q={d} gives {order // d} units" for d in divisors(order))


def _expand(graph: CirculantBipartiteGraph, alpha: int) -> CirculantBipartiteGraph:
    try:
        return expand_circulant(graph, alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _fold_factors_in_range(order: int, lo: int, hi: int) -> list[int]:
    return [q for q in divisors(order) if q > 1 and lo <= order // q <= hi]


def _auto_alpha(
    graph: CirculantBipartiteGraph, q_setting: int | str, target_f: tuple[int, int]
) -> int:
    """Expansion size chosen by --alpha auto: the smallest that a fixed q
    divides, else the smallest giving a fold factor with a unit count in
    target_f."""
    if isinstance(q_setting, int):
        return _alpha_candidates_for_divisibility(graph.order, q_setting)[0]
    lo, hi = target_f
    candidates = choose_alpha(graph, (lo, hi))
    if not candidates:
        raise UsageError(
            f"no expansion up to alpha={graph.order} gives the "
            f"order-{graph.order} graph a unit count in [{lo}, {hi}]"
        )
    return candidates[0]["alpha"]


def _resolve_fold_inputs(settings: dict) -> tuple[CirculantBipartiteGraph, int]:
    """Acquire the graph, expand it if requested or needed, pick q."""
    graph = _acquire_graph(settings)
    q_setting, alpha_setting = settings["q"], settings["alpha"]
    lo, hi = settings["target_f"]
    if isinstance(alpha_setting, int):
        graph = _expand(graph, alpha_setting)
    if q_setting == "auto":
        fits = _fold_factors_in_range(graph.order, lo, hi)
        if not fits and alpha_setting == "auto":
            graph = _expand(graph, _auto_alpha(graph, q_setting, (lo, hi)))
            fits = _fold_factors_in_range(graph.order, lo, hi)
        if not fits:
            order = graph.order
            hints = [c["alpha"] for c in choose_alpha(graph, (lo, hi))[:3]]
            raise UsageError(
                f"q=auto found no fold factor of the order-{order} graph with a "
                f"unit count in [{lo}, {hi}] ({_divisor_table(order)}); pass "
                f"--alpha auto or expand first with an alpha from {hints}"
            )
        q = fits[0]
    else:
        q = q_setting
        order = graph.order
        if order % q != 0:
            if alpha_setting != "auto":
                raise UsageError(
                    f"fold factor {q} does not divide the graph order {order}; "
                    f"valid fold factors are {divisors(order)}, or expand first: "
                    f"alpha candidates for q={q} are "
                    f"{_alpha_candidates_for_divisibility(order, q)}"
                )
            graph = _expand(graph, _auto_alpha(graph, q, (lo, hi)))
    return pad_dummy_offset(graph), q


def _build_plan(graph: CirculantBipartiteGraph, settings: dict, q: int) -> FoldPlan:
    try:
        return FoldPlan.for_graph(
            graph,
            q,
            design_option=settings["design_option"],
            T=settings["T"],
            delta=settings["delta"],
            pipeline_level=settings["pipeline"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require_out(settings: dict) -> Path:
    if not settings["out"]:
        raise UsageError("--out DIR is required for this subcommand")
    return Path(settings["out"])


def _read_manifest(files: Mapping[str, str]) -> dict:
    """manifest.json, whose ``files`` must be an object of digests."""
    manifest = read_json(files, "manifest.json")
    listed = _field("manifest.json", manifest, "files", json_value)
    if not isinstance(listed, dict):
        raise SimulationStructureError(
            f"manifest.json: files must be an object, got {listed!r}"
        )
    return manifest


def _write_sim_outputs(run_dir: Path, report, verdict: dict, manifest: dict | None) -> None:
    """Store the simulation verdicts and fold them into the manifest."""
    extra = {
        "sim_report.json": _json_text(
            {**report.to_json_dict(), "dataflow": verdict}
        ),
        "sim_summary.txt": summarize(report),
    }
    for name, text in extra.items():
        (run_dir / name).write_text(text, encoding="utf-8")
    if manifest is not None:
        for name, text in extra.items():
            manifest["files"][name] = sha256_text(text)
        (run_dir / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")


def _replay(files: Mapping[str, str], iterations: int, where: str | Path) -> tuple[SimReport, dict]:
    """The replay of ``files`` and its verdict; a missing file is a usage error."""
    try:
        report = simulate(files, iterations=iterations)
    except SimulationStructureError as exc:
        if "missing artifact" in str(exc):
            raise UsageError(f"{exc} in {where}") from None
        raise
    return report, check_dataflow_equivalence(report, files)


def _replay_and_report(
    run_dir: Path, iterations: int, command: str, preamble: str | None = None
) -> int:
    """Replay a run directory, store and print its verdicts, and return the
    exit code; ``preamble`` is printed before the replay summary."""
    files = RunDirectory(run_dir)
    try:
        report, verdict = _replay(files, iterations, run_dir)
        manifest = _read_manifest(files) if "manifest.json" in files else None
    except SimulationStructureError as exc:
        print(f"structural inconsistency: {exc}", file=sys.stderr)
        print(f"{command}: FAIL")
        return 1
    _write_sim_outputs(run_dir, report, verdict, manifest)
    if preamble is not None:
        print(preamble)
    sys.stdout.write(summarize(report))
    for failure in verdict["failures"][:10]:
        print(f"dataflow: {failure}")
    print(f"{command}: {'PASS' if verdict['ok'] else 'FAIL'}")
    return 0 if verdict["ok"] else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_pg(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    if settings["geometry"] is None:
        raise UsageError("build-pg requires --geometry n,p,s")
    settings["graph"] = None
    out = _require_out(settings)
    graph = _acquire_graph(settings)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.json").write_text(emit_graph_json(graph), encoding="utf-8")
    n, p, s = settings["geometry"]
    print(
        f"built P({n}, GF({p}^{s})): order {graph.order}, degree {graph.degree}; "
        f"wrote graph.json to {out}"
    )
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    if settings["graph"] is None:
        raise UsageError("expand requires --graph FILE")
    settings["geometry"] = None
    out = _require_out(settings)
    graph = _acquire_graph(settings)
    alpha_setting = settings["alpha"]
    if alpha_setting is None:
        raise UsageError("expand requires --alpha INT or --alpha auto")
    if alpha_setting == "auto":
        alpha = _auto_alpha(graph, settings["q"], settings["target_f"])
    else:
        alpha = alpha_setting
    expanded = _expand(graph, alpha)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.json").write_text(emit_graph_json(expanded), encoding="utf-8")
    print(
        f"expanded order {graph.order} to {expanded.order} (alpha {alpha}, "
        f"degree {expanded.degree}); wrote graph.json to {out}"
    )
    return 0


def cmd_fold(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    out = _require_out(settings)
    graph, q = _resolve_fold_inputs(settings)
    plan = _build_plan(settings=settings, graph=graph, q=q)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.json").write_text(emit_graph_json(graph), encoding="utf-8")
    (out / "plan.json").write_text(_json_text(plan.to_json_dict()), encoding="utf-8")
    print(
        f"folded order {graph.order} by q={plan.q} into {plan.units_per_side} "
        f"units per side; wrote graph.json, plan.json to {out}"
    )
    return 0


def _emit_directory(settings: dict, formats: tuple[str, ...]) -> tuple[Path, dict]:
    out = _require_out(settings)
    graph, q = _resolve_fold_inputs(settings)
    plan = _build_plan(settings=settings, graph=graph, q=q)
    try:
        manifest = write_run_directory(out, graph, plan, formats)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return out, manifest


def cmd_schedule(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    out, manifest = _emit_directory(settings, ("csv", "json"))
    print(f"wrote {len(manifest['files'])} schedule artifacts to {out}")
    return 0


def cmd_emit(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    out, manifest = _emit_directory(settings, tuple(settings["emit"]))
    print(
        f"wrote {len(manifest['files'])} artifacts ({', '.join(settings['emit'])}) "
        f"to {out}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    run_dir = _require_out(settings)
    if not run_dir.is_dir():
        raise UsageError(f"run directory {run_dir} not found")
    return _replay_and_report(run_dir, settings["iterations"], "simulate")


def cmd_run(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    formats = tuple(settings["emit"])
    if not {"csv", "json"} <= set(formats):
        raise UsageError(
            "run simulates the emitted files, so --emit must include csv and json"
        )
    out, manifest = _emit_directory(settings, formats)
    return _replay_and_report(
        out,
        settings["iterations"],
        "run",
        preamble=f"wrote {len(manifest['files']) + 2} artifacts to {out}",
    )


# ---------------------------------------------------------------------------
# verify


def _detect_formats(files: Mapping[str, str]) -> tuple[str, ...]:
    formats = []
    if any(name.endswith(".csv") and "/" not in name for name in files):
        formats.append("csv")
    if "graph.json" in files:
        formats.append("json")
    if any(name.startswith("hdl/") for name in files):
        formats.append("hdl")
    return tuple(formats)


def _read_artifact(files: Mapping[str, str], name: str, parse):
    data = read_json(files, name)
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _read_design(files: Mapping[str, str]) -> tuple[CirculantBipartiteGraph, FoldPlan]:
    """The graph and fold plan of a run.  A file that does not parse, or a
    plan the graph cannot be folded and timed with, raises ValueError
    naming the file and the cause."""
    graph = _read_artifact(files, "graph.json", CirculantBipartiteGraph.from_json_dict)
    plan = _read_artifact(files, "plan.json", FoldPlan.from_json_dict)
    try:
        generate_folded_sequence(graph, plan)
        full_timing(graph, plan)
    except ValueError as exc:
        raise ValueError(f"plan.json does not fit graph.json: {exc}") from None
    return graph, plan


def _check_stored_files(
    files: Mapping[str, str], graph: CirculantBipartiteGraph, plan: FoldPlan, check
) -> None:
    """The re-derivation and manifest checks.  Each stored file is read
    and hashed once, and its digest compared both with that of an
    in-memory render of the design and with its digest in manifest.json."""
    rendered = render_run_files(graph, plan, _detect_formats(files))
    rendered = {name: sha256_text(text) for name, text in rendered.items()}
    try:
        listed = _read_manifest(files)["files"]
    except SimulationStructureError as exc:
        listed, manifest_error = {}, str(exc)
    else:
        manifest_error = None
    stored, unreadable = {}, {}
    for name in files.keys() & (rendered.keys() | listed.keys()):
        try:
            stored[name] = sha256_text(files[name])
        except SimulationStructureError as exc:
            unreadable[name] = str(exc)

    def faults(digests: dict, absent: str, differs: str) -> list[str]:
        """Each file of ``digests`` that is unreadable, absent or of another digest."""
        return [
            f"{name}{differs}" if name in stored else unreadable.get(name, f"{name} {absent}")
            for name, digest in sorted(digests.items())
            if stored.get(name) != digest
        ]

    mismatched = faults(rendered, "missing", "")
    problems = faults(listed, "listed but absent", " hash mismatch")
    unlisted = files.keys() - listed.keys() - {"manifest.json"}
    problems.extend(f"{name} on disk but unlisted" for name in sorted(unlisted))
    expected = rendered.keys() | {"manifest.json", "sim_report.json", "sim_summary.txt"}
    problems.extend(f"{name} unexpected" for name in sorted(files.keys() - expected))
    # The digests pin every other file; the manifest's own bytes must be
    # the ones emitted for its digests.
    if manifest_error is None and files["manifest.json"] != _manifest_text(listed):
        problems.append("manifest.json is not the manifest emitted for its digests")
    check(
        "re-derivation",
        not mismatched,
        f"differs: {mismatched[:5]}" if mismatched else f"{len(rendered)} artifacts",
    )
    if manifest_error is not None:
        check("manifest", False, manifest_error)
        return
    check(
        "manifest",
        not problems,
        f"{problems[:5]}" if problems else f"{len(listed)} files hashed",
    )


def _replay_counts(report: SimReport) -> str:
    return (
        f"{len(report.conflicts)} conflicts, {len(report.misroutes)} misroutes, "
        f"{len(report.file_mismatches)} file mismatches"
    )


def _reference_replay(graph: CirculantBipartiteGraph, plan: FoldPlan) -> SimReport:
    """Replay of the unfolded (q = 1) build of the design."""
    flat_plan = replace(plan, q=1, units_per_side=graph.order)
    return simulate(render_run_files(graph, flat_plan, ("csv", "json")))


def _check_replay(
    files: Mapping[str, str], iterations: int, where: str | Path, check
) -> SimReport | None:
    """The simulation and dataflow checks.  Returns the replay's measured
    lengths alone, so that nothing per iteration outlives the checks, or
    None when the files did not load."""
    try:
        report, verdict = _replay(files, iterations, where)
    except SimulationStructureError as exc:
        check("simulation", False, str(exc))
        return None
    check("simulation", report.ok, _replay_counts(report))
    check(
        "dataflow equivalence",
        verdict["ok"],
        f"{report.real_tokens['row']}+{report.real_tokens['col']} real tokens",
    )
    return SimReport(
        report.iterations,
        measured_half=report.measured_half,
        measured_full=report.measured_full,
    )


def _verify_files(
    files: Mapping[str, str], where: str | Path, iterations: int
) -> tuple[bool, list[str]]:
    """Every check of a run's files; a missing required file is a usage error."""
    checks: list[str] = []
    failed = False

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        failed = failed or not ok
        suffix = f" ({detail})" if detail else ""
        checks.append(f"{name}: {'ok' if ok else 'FAIL'}{suffix}")

    for required in ("graph.json", "plan.json", "manifest.json"):
        if required not in files:
            raise UsageError(f"missing artifact {required} in {where}")
    try:
        graph, plan = _read_design(files)
    except ValueError as exc:
        check("design", False, str(exc))
        return False, checks

    # Incidence structure, when the graph came from a geometry.
    try:
        failures = _incidence_failures(graph, graph.geometry)
    except ValueError as exc:
        check("incidence", False, f"graph.json geometry: {exc}")
    else:
        if failures is None:
            checks.append("incidence: skipped (hand-supplied graph)")
        else:
            detail = f"P{tuple(graph.geometry)}"
            if failures:
                detail += ": " + "; ".join(failures)
            check("incidence", not failures, detail)

    # Folded-sequence invariants.
    balance_ok = True
    details = []
    for side in ("row", "col"):
        sequence = generate_folded_sequence(graph, plan, side)
        result = verify_balance(sequence, graph, plan)
        balance_ok = balance_ok and result.ok
        try:
            cross_fold_endpoints(graph, plan, side)
        except SelfCheckError as exc:
            balance_ok = False
            details.append(str(exc))
        rho, theta, rho_hat = compute_rho(graph, plan, side)
        details.append(f"{side} rho={rho} theta={theta} rho_hat={rho_hat}")
    check("schedule balance and endpoints", balance_ok, "; ".join(details))

    # The stored files against a render of the design and the manifest,
    # in a call of its own so that neither is held during the replays.
    _check_stored_files(files, graph, plan, check)

    # Cycle-accurate replay of the emitted files.
    report = _check_replay(files, iterations, where, check)
    if report is None:
        return (not failed), checks

    # Throughput against a passing replay of the unfolded build.
    try:
        flat_report = _reference_replay(graph, plan)
    except SimulationStructureError as exc:
        check("throughput", False, f"q = 1 reference: {exc}")
        return (not failed), checks
    if not flat_report.ok:
        check("throughput", False, f"q = 1 reference: {_replay_counts(flat_report)}")
        return (not failed), checks
    throughput = measure_throughput(report, flat_report, q=plan.q)
    check(
        "throughput",
        throughput["ok"],
        f"ratio {throughput['ratio']:.2f} within fold factor {plan.q}",
    )
    return (not failed), checks


def cmd_verify(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    out = settings["out"]
    if out and Path(out).is_dir():
        passed, checks = _verify_files(RunDirectory(out), out, settings["iterations"])
    elif settings["geometry"] is not None or settings["graph"] is not None:
        formats = tuple(settings["emit"])
        if not {"csv", "json"} <= set(formats):
            formats = ("csv", "json")
        graph, q = _resolve_fold_inputs(settings)
        plan = _build_plan(settings=settings, graph=graph, q=q)
        try:
            files = render_run_files(graph, plan, formats)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        files["manifest.json"] = emit_manifest_json(files)
        passed, checks = _verify_files(files, "the rendered run", settings["iterations"])
    else:
        raise UsageError(
            "verify needs an existing run directory (--out DIR) or pipeline "
            "inputs (--geometry/--graph, optionally --config)"
        )
    for line in checks:
        print(line)
    print(f"verify: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--geometry", help="projective geometry as n,p,s")
    sub.add_argument("--graph", help="path to a graph JSON file")
    sub.add_argument("--q", help="fold factor (positive integer or 'auto')")
    sub.add_argument(
        "--alpha", help="expansion size (positive integer or 'auto'; omit to disable)"
    )
    sub.add_argument(
        "--design-option",
        dest="design_option",
        type=int,
        choices=(1, 2),
        help="slot ordering: 1 pattern-major, 2 fold-major",
    )
    sub.add_argument("--T", type=int, help="compute period in cycles per slot")
    sub.add_argument("--delta", type=int, help="interconnect latency in cycles")
    sub.add_argument(
        "--pipeline",
        choices=PIPELINE_LEVELS,
        help="pipelining level",
    )
    sub.add_argument("--out", help="output (or run) directory")
    sub.add_argument("--emit", help="comma-separated formats from csv,json,hdl")
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument(
        "--iterations", type=int, help="iterations to simulate (default 1)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgfold",
        description=(
            "Synthesize folded semi-parallel architectures from circulant "
            "bipartite graphs: conflict-free schedules, memory maps, switch "
            "tables, netlists, HDL, and a verifying simulator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("build-pg", cmd_build_pg, "build a projective-geometry graph"),
        ("expand", cmd_expand, "grow a graph with dummy nodes to a composite order"),
        ("fold", cmd_fold, "plan the fold: write graph.json and plan.json"),
        ("schedule", cmd_schedule, "emit LUTs, switch tables, timing, traces, and netlist"),
        ("simulate", cmd_simulate, "replay an emitted run directory cycle by cycle"),
        ("emit", cmd_emit, "emit artifacts in the chosen formats"),
        ("run", cmd_run, "full pipeline: build, fold, schedule, emit, simulate"),
        ("verify", cmd_verify, "re-derive, re-hash, and re-simulate a run"),
    )
    for name, func, help_text in commands:
        command = sub.add_parser(name, help=help_text)
        _add_common_flags(command)
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = args.func(args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except SelfCheckError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: send what is left to the null device,
        # so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code
