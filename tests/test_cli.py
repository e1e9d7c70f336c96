"""End-to-end command line checks: staged subcommands, auto parameter
selection, config handling, exit codes, and the verify flow."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from pgfold.cli import main
from pgfold.emit import emit_manifest_json
from pgfold.simulator import SimulationStructureError

from .test_simulator import rewrite_csv


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pg15_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "pg15"
    assert main(["build-pg", "--geometry", "3,2,1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def pg13_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli13") / "pg13"
    assert main(["build-pg", "--geometry", "2,3,1", "--out", str(out)]) == 0
    return out


def older_format(run_dir):
    """Rewrite the run in ``run_dir`` into the older run format: with
    layout.json, an out and an in switch table per instance and their ROM
    arrays, netlist.json's annotations and each family's copy, and a
    manifest of those files."""
    (run_dir / "layout.json").write_text(
        json.dumps(
            {
                "bin_count": 4,
                "bin_size": 6,
                "capacity": 24,
                "format_version": 2,
                "pattern_count": 4,
                "reserved_addresses": [19, 21, 23],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    for instance in ("row_reads", "col_reads"):
        table = (run_dir / f"lut_{instance}.csv").read_text()
        (run_dir / f"lut_{instance}.csv").unlink()
        for kind in ("out", "in"):
            (run_dir / f"lut_{instance}_{kind}.csv").write_text(table)
    netlist = read_json(run_dir / "netlist.json")
    sizes = {"row_reads": (5, 0, 5), "col_reads": (5, 1, 6)}
    netlist["annotations"] = {
        "instances": {
            instance: {"rho": rho, "theta": theta, "rho_hat": rho_hat, "wire_count": 5 * rho_hat}
            for instance, (rho, theta, rho_hat) in sizes.items()
        }
    }
    for family in netlist["wire_families"]:
        family["copy"] = int(family["port"] >= sizes[family["instance"]][0])
    (run_dir / "netlist.json").write_text(json.dumps(netlist, indent=2, sort_keys=True) + "\n")
    roms = run_dir / "hdl" / "folded_luts.vhd"
    text = roms.read_text().replace(
        "lut_<instance>_port<b> is column port<b> of\n-- lut_<instance>.csv, one entry per slot, "
        "which the out and the in\n-- switches of the instance both read.",
        "lut_<instance>_<kind>_port<b> is column port<b> of\n"
        "-- lut_<instance>_<kind>.csv, one entry per slot.",
    )
    roms.write_text(
        re.sub(
            r"^  CONSTANT lut_(\w+)_port0 ([^;]*;)\n  CONSTANT lut_\1_port1 ([^;]*;)\n",
            lambda m: "".join(
                f"  CONSTANT lut_{m[1]}_{kind}_port{b} {m[2 + b]}\n"
                for kind in ("out", "in")
                for b in (0, 1)
            ),
            text,
            flags=re.MULTILINE,
        )
    )
    files = {
        path.relative_to(run_dir).as_posix(): path.read_text()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }
    (run_dir / "manifest.json").write_text(emit_manifest_json(files))


@pytest.fixture(scope="module")
def run15_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clirun") / "run15"
    code = main(["run", "--geometry", "3,2,1", "--q", "3", "--out", str(out)])
    assert code == 0
    return out


class TestBuildPg:
    def test_writes_graph_only(self, pg15_dir, capsys):
        graph = read_json(pg15_dir / "graph.json")
        assert graph["J"] == 15
        assert graph["gamma"] == 7
        assert [path.name for path in pg15_dir.iterdir()] == ["graph.json"]

    def test_smaller_geometry(self, pg13_dir):
        graph = read_json(pg13_dir / "graph.json")
        assert graph["J"] == 13
        assert graph["gamma"] == 4

    def test_requires_geometry(self, tmp_path, capsys):
        assert main(["build-pg", "--out", str(tmp_path / "x")]) == 2
        assert "requires --geometry" in capsys.readouterr().err

    def test_rejects_malformed_geometry(self, tmp_path, capsys):
        code = main(
            ["build-pg", "--geometry", "3,2", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "n,p,s" in capsys.readouterr().err

    def test_rejects_invalid_field(self, tmp_path, capsys):
        code = main(
            ["build-pg", "--geometry", "2,4,1", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_builds_past_the_field_table_capacity(self, tmp_path):
        # P(2, GF(128)) needs GF(2^21), past FiniteField's 2^20 tables.
        out = tmp_path / "pg"
        assert main(["build-pg", "--geometry", "2,2,7", "--out", str(out)]) == 0
        graph = read_json(out / "graph.json")
        order, offsets = graph["J"], graph["base_offsets"]
        assert (order, graph["gamma"]) == (16513, 129)
        # A planar difference set: each nonzero difference occurs once.
        differences = sorted((a - b) % order for a in offsets for b in offsets if a != b)
        assert differences == list(range(1, order))

    def test_rejects_geometry_past_the_incidence_bound(self, tmp_path, capsys):
        out = tmp_path / "pg"
        assert main(["build-pg", "--geometry", "2,2,8", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: P(2, GF(2^8)) has J × degree = 65793 × 257 = 16908801 incidence "
            "cells, beyond the supported 4194304 (2^22)\n"
        )
        assert not out.exists()


# SHA-256 of build-pg's graph.json, pinned so a change to the offset
# construction that alters any byte of the ladder fails here.
BUILD_PG_DIGESTS = {
    # J = 757
    "2,3,3": "622b98183b1a469b6ec6766bb2810dbf5ef3892d0e81b6d1b59ed8e93ab5cf51",
    # J = 993
    "2,31,1": "d116cd0453e8ea88d3a2df2689da97eb606d5e8897ba213161cc54126dbd6897",
    # J = 1057
    "2,2,5": "37f08a079ca2a16814cd25cf871416c8c7b1c70b3be321068fe79cbc0de78baf",
    # J = 4161
    "2,2,6": "e5f62664a241d7e0e402d1901ee05a6f5d3ef02c6e7dfbbdde1902a69de7b910",
}


@pytest.mark.parametrize("geometry", sorted(BUILD_PG_DIGESTS))
def test_build_pg_ladder_digests(tmp_path, capsys, geometry):
    out = tmp_path / "pg"
    assert main(["build-pg", "--geometry", geometry, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "graph.json").read_bytes()).hexdigest()
    assert digest == BUILD_PG_DIGESTS[geometry]


class TestSelfChecks:
    """A broken construction ends in exit 1 with the invariant named."""

    def test_non_primitive_modulus_fails_construction_check(self, monkeypatch, tmp_path, capsys):
        import pgfold.projective as projective
        from pgfold.galois import Polynomial

        # x^4+x^3+x^2+x+1 is irreducible over GF(2), but its root has order 5.
        monkeypatch.setattr(
            projective, "find_primitive_polynomial", lambda p, k: Polynomial((1, 1, 1, 1, 1), 2)
        )
        for command in ("build-pg", "run"):
            assert main([command, "--geometry", "3,2,1", "--out", str(tmp_path / command)]) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            assert captured.err == (
                "error: construction self-check failed for P(3, GF(2^1)): "
                "|D| = 3, expected 7\n"
            )
        assert not (tmp_path / "build-pg").exists()

    def test_wrong_offsets_fail_incidence_check(self, monkeypatch, tmp_path, capsys):
        import pgfold.cli as cli
        from pgfold.circulant import CirculantBipartiteGraph

        monkeypatch.setattr(
            cli, "build_pg_graph", lambda params: CirculantBipartiteGraph.plain(15, (0, 1, 2, 4, 5, 8, 11))
        )
        assert main(["build-pg", "--geometry", "3,2,1", "--out", str(tmp_path / "pg")]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err == (
            "error: incidence self-check failed for P(3, GF(2^1)): "
            "rows 0 and 2 share 2 points, expected 3\n"
        )
        assert not (tmp_path / "pg").exists()

    def test_failed_hdl_check_ends_run_and_verify(self, monkeypatch, tmp_path, capsys):
        import pgfold.emit as emit

        argv = ["--geometry", "3,2,1", "--q", "3", "--out", str(tmp_path / "run")]
        assert main(["run", *argv]) == 0
        capsys.readouterr()
        monkeypatch.setattr(emit, "check_hdl", lambda files: ["top.vhd: entity top has no matching end"])
        for command in (["verify", "--out", str(tmp_path / "run")], ["run", *argv[:-1], str(tmp_path / "again")]):
            assert main(command) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            assert captured.err == (
                "error: HDL self-check failed: top.vhd: entity top has no matching end\n"
            )
        assert not (tmp_path / "again").exists()

    def test_varying_cross_fold_endpoint_fails_verify(self, monkeypatch, tmp_path, capsys):
        import types

        import pgfold.cli as cli
        from pgfold.folding import cross_fold_endpoints

        out = str(tmp_path / "run")
        assert main(["run", "--geometry", "3,2,1", "--q", "3", "--emit", "csv,json", "--out", out]) == 0
        capsys.readouterr()

        # Four units a fold do not divide the 15 nodes.
        def misfolded(graph, plan, side):
            return cross_fold_endpoints(graph, types.SimpleNamespace(q=3, units_per_side=4), side)

        monkeypatch.setattr(cli, "cross_fold_endpoints", misfolded)
        assert main(["verify", "--out", out]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        lines = captured.out.splitlines()
        assert lines[1] == (
            "schedule balance and endpoints: FAIL (cross-fold endpoint self-check failed "
            "on the row side: folded endpoint of (unit 0, edge 5) varies across folds: "
            "[0, 1]; row rho=5 theta=0 rho_hat=5; cross-fold endpoint self-check failed "
            "on the col side: folded endpoint of (unit 0, edge 2) varies across folds: "
            "[0, 3]; col rho=5 theta=1 rho_hat=6)"
        )
        assert lines[-2:] == ["throughput: ok (ratio 3.00 within fold factor 3)", "verify: FAIL"]


class TestExpand:
    def test_explicit_alpha(self, pg13_dir, tmp_path, capsys):
        out = tmp_path / "exp"
        code = main(
            [
                "expand",
                "--graph",
                str(pg13_dir / "graph.json"),
                "--alpha",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        graph = read_json(out / "graph.json")
        assert graph["J"] == 14
        assert graph["real_J"] == 13
        assert "alpha 1" in capsys.readouterr().out

    def test_auto_alpha_for_divisibility(self, pg13_dir, tmp_path):
        out = tmp_path / "exp"
        code = main(
            [
                "expand",
                "--graph",
                str(pg13_dir / "graph.json"),
                "--alpha",
                "auto",
                "--q",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert read_json(out / "graph.json")["J"] == 14

    def test_auto_alpha_by_unit_range(self, pg13_dir, tmp_path):
        out = tmp_path / "exp"
        code = main(
            [
                "expand",
                "--graph",
                str(pg13_dir / "graph.json"),
                "--alpha",
                "auto",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert read_json(out / "graph.json")["J"] == 14

    def test_requires_alpha(self, pg13_dir, tmp_path, capsys):
        code = main(
            [
                "expand",
                "--graph",
                str(pg13_dir / "graph.json"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "--alpha" in capsys.readouterr().err


class TestOneGraphJson:
    """Every command writes the same graph.json for the same graph: the
    sentinel of an odd degree follows from the degree, not from a field.
    P(3, GF(2)) has J = 15 and degree 7."""

    def test_build_pg_and_run_write_the_same_graph(self, pg15_dir, run15_dir):
        assert (run15_dir / "graph.json").read_bytes() == (pg15_dir / "graph.json").read_bytes()

    def test_graph_of_a_run_expands_like_the_built_graph(self, pg15_dir, run15_dir, tmp_path):
        for name, source in (("built", pg15_dir), ("run", run15_dir)):
            argv = ["expand", "--graph", str(source / "graph.json"), "--alpha", "1"]
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        expanded = (tmp_path / "run" / "graph.json").read_bytes()
        assert expanded == (tmp_path / "built" / "graph.json").read_bytes()
        assert read_json(tmp_path / "run" / "graph.json")["J"] == 16

    def test_graph_file_with_the_older_flag_runs_the_same(self, pg15_dir, tmp_path):
        # graph.json files written with the sentinel flag still load; the
        # flag is ignored like any unknown field.
        flagged = read_json(pg15_dir / "graph.json")
        flagged["dummy_offset_padded"] = True
        (tmp_path / "flagged.json").write_text(json.dumps(flagged))
        runs = {}
        for name, source in (("plain", pg15_dir / "graph.json"), ("flagged", tmp_path / "flagged.json")):
            out = tmp_path / name
            assert main(["run", "--graph", str(source), "--q", "3", "--out", str(out)]) == 0
            runs[name] = {
                path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()
            }
        assert runs["flagged"] == runs["plain"]
        assert len(runs["plain"]) > 10


@pytest.mark.parametrize("command", ["schedule", "emit", "run"])
def test_no_command_writes_fold_files(pg15_dir, tmp_path, command):
    # The replay derives the slots from graph.json and plan.json.
    out = tmp_path / command
    argv = [command, "--graph", str(pg15_dir / "graph.json"), "--q", "3", "--out", str(out)]
    assert main(argv) == 0
    assert (out / "plan.json").is_file()
    assert not list(out.glob("fold_*"))


class TestFold:
    def test_writes_graph_and_plan_only(self, pg15_dir, tmp_path):
        out = tmp_path / "fold"
        code = main(
            [
                "fold",
                "--graph",
                str(pg15_dir / "graph.json"),
                "--q",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        plan = read_json(out / "plan.json")
        assert plan["q"] == 3
        assert plan["units_per_side"] == 5
        assert sorted(path.name for path in out.iterdir()) == ["graph.json", "plan.json"]

    def test_auto_q_picks_unit_range(self, pg15_dir, tmp_path):
        out = tmp_path / "fold"
        code = main(
            ["fold", "--graph", str(pg15_dir / "graph.json"), "--out", str(out)]
        )
        assert code == 0
        assert read_json(out / "plan.json")["q"] == 3

    def test_bad_factor_names_divisors_and_alphas(self, pg15_dir, tmp_path, capsys):
        code = main(
            [
                "fold",
                "--graph",
                str(pg15_dir / "graph.json"),
                "--q",
                "7",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not divide the graph order 15" in err
        assert "[1, 3, 5, 15]" in err
        assert "alpha candidates" in err
        assert "6" in err

    def test_auto_alpha_on_expanded_graph_is_usage_error(self, pg13_dir, tmp_path, capsys):
        expanded = tmp_path / "exp"
        source = str(pg13_dir / "graph.json")
        assert main(["expand", "--graph", source, "--alpha", "1", "--out", str(expanded)]) == 0
        capsys.readouterr()
        code = main(
            [
                "fold",
                "--graph",
                str(expanded / "graph.json"),
                "--alpha",
                "auto",
                "--q",
                "3",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "only an unexpanded graph can be expanded" in err

    def test_requires_out(self, pg15_dir, capsys):
        code = main(["fold", "--graph", str(pg15_dir / "graph.json"), "--q", "3"])
        assert code == 2
        assert "--out" in capsys.readouterr().err


class TestScheduleAndEmit:
    def test_schedule_writes_flat_artifacts(self, pg15_dir, tmp_path):
        out = tmp_path / "sched"
        code = main(
            [
                "schedule",
                "--graph",
                str(pg15_dir / "graph.json"),
                "--q",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "manifest.json").is_file()
        assert (out / "write_lut_row.csv").is_file()
        assert (out / "timing.json").is_file()
        assert not (out / "hdl").exists()

    def test_emit_json_only(self, pg15_dir, tmp_path):
        out = tmp_path / "emitjson"
        code = main(
            [
                "emit",
                "--graph",
                str(pg15_dir / "graph.json"),
                "--q",
                "3",
                "--emit",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "netlist.json").is_file()
        assert not list(out.glob("*.csv"))

    def test_emit_all_formats(self, pg15_dir, tmp_path):
        out = tmp_path / "emitall"
        code = main(
            [
                "emit",
                "--graph",
                str(pg15_dir / "graph.json"),
                "--q",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "hdl" / "top.vhd").is_file()
        assert (out / "write_lut_row.csv").is_file()
        assert not list(out.glob("schedule_table_*.csv"))
        assert not (out / "incidence.csv").exists()

    def test_emit_rejects_unknown_format(self, pg15_dir, tmp_path, capsys):
        code = main(
            [
                "emit",
                "--graph",
                str(pg15_dir / "graph.json"),
                "--q",
                "3",
                "--emit",
                "verilog",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "csv,json,hdl" in capsys.readouterr().err


class TestRun:
    def test_end_to_end_pass(self, run15_dir, capsys):
        report = read_json(run15_dir / "sim_report.json")
        assert report["ok"] is True
        assert report["dataflow"]["ok"] is True
        manifest = read_json(run15_dir / "manifest.json")
        assert "sim_report.json" in manifest["files"]
        assert "sim_summary.txt" in manifest["files"]
        assert (run15_dir / "hdl" / "top.vhd").is_file()

    def test_auto_expansion_on_prime_order(self, tmp_path):
        out = tmp_path / "run13"
        code = main(
            [
                "run",
                "--geometry",
                "2,3,1",
                "--alpha",
                "auto",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        graph = read_json(out / "graph.json")
        assert graph["J"] == 14
        assert graph["real_J"] == 13
        assert read_json(out / "plan.json")["q"] == 2
        assert read_json(out / "sim_report.json")["ok"] is True

    def test_prime_order_without_alpha_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--geometry",
                "2,3,1",
                "--q",
                "2",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not divide the graph order 13" in err
        assert "alpha candidates for q=2 are [1, 3, 5]" in err

    def test_determinism_across_invocations(self, run15_dir, tmp_path):
        again = tmp_path / "again"
        code = main(["run", "--geometry", "3,2,1", "--q", "3", "--out", str(again)])
        assert code == 0
        assert (again / "manifest.json").read_bytes() == (
            run15_dir / "manifest.json"
        ).read_bytes()
        assert (again / "sim_report.json").read_bytes() == (
            run15_dir / "sim_report.json"
        ).read_bytes()

    def test_graph_pipelining_needs_option_two(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--geometry",
                "3,2,1",
                "--q",
                "3",
                "--pipeline",
                "graph",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "design option 2" in capsys.readouterr().err

    def test_run_requires_simulatable_formats(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--geometry",
                "3,2,1",
                "--q",
                "3",
                "--emit",
                "hdl",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "csv and json" in capsys.readouterr().err


class TestConfigFile:
    def test_config_drives_run(self, tmp_path):
        out = tmp_path / "cfgrun"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"geometry": [3, 2, 1], "q": 3, "out": str(out)})
        )
        assert main(["run", "--config", str(config)]) == 0
        assert read_json(out / "plan.json")["q"] == 3

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "cfgrun"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"geometry": [3, 2, 1], "q": 3, "out": str(out)})
        )
        assert main(["run", "--config", str(config), "--q", "5"]) == 0
        assert read_json(out / "plan.json")["q"] == 5

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fold": 3}))
        assert main(["run", "--config", str(config)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("not json")
        assert main(["run", "--config", str(config)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_rejected(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"q": 2.5}, "--q expects a positive integer or 'auto', got 2.5"),
            ({"q": [3]}, "--q expects a positive integer or 'auto', got [3]"),
            ({"alpha": 1.5}, "--alpha expects a positive integer or 'auto', got 1.5"),
            ({"T": True}, "T must be an integer, got True"),
            ({"out": 5}, "out must be a path, got 5"),
        ],
    )
    def test_wrong_json_type_rejected(self, tmp_path, capsys, values, message):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"geometry": [3, 2, 1], "out": str(tmp_path / "run"), **values})
        )
        assert main(["run", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err


class TestSimulateCommand:
    def test_replays_run_directory(self, run15_dir, tmp_path, capsys):
        work = tmp_path / "copy"
        shutil.copytree(run15_dir, work)
        assert main(["simulate", "--out", str(work)]) == 0
        out = capsys.readouterr().out
        assert "simulate: PASS" in out
        assert "status: pass" in out

    def test_detects_corrupted_switch_table(self, run15_dir, tmp_path, capsys):
        work = tmp_path / "copy"
        shutil.copytree(run15_dir, work)

        def mutate(rows):
            rows[1]["port0"], rows[1]["port1"] = rows[1]["port1"], rows[1]["port0"]

        rewrite_csv(work, "lut_row_reads.csv", mutate)
        assert main(["simulate", "--out", str(work)]) == 1
        assert "simulate: FAIL" in capsys.readouterr().out

    def test_missing_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "nope")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_run_of_the_older_format_must_be_emitted_again(self, run15_dir, tmp_path, capsys):
        # Runs of the older format held layout.json and two switch tables per
        # instance; they end as a missing switch table does.
        work = tmp_path / "older"
        shutil.copytree(run15_dir, work)
        older_format(work)
        for command in ("simulate", "verify"):
            assert main([command, "--out", str(work)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: missing artifact lut_row_reads.csv in {work}\n"
            assert "Traceback" not in captured.out


class TestVerify:
    def test_fresh_run_passes(self, run15_dir, capsys):
        assert main(["verify", "--out", str(run15_dir)]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "re-derivation: ok" in out
        assert "manifest: ok" in out
        assert "simulation: ok" in out
        assert "throughput: ok" in out

    def test_edited_lut_row_fails(self, run15_dir, tmp_path, capsys):
        work = tmp_path / "tampered"
        shutil.copytree(run15_dir, work)

        def mutate(rows):
            rows[0]["port0"], rows[0]["port1"] = rows[0]["port1"], rows[0]["port0"]

        rewrite_csv(work, "lut_col_reads.csv", mutate)
        assert main(["verify", "--out", str(work)]) == 1
        out = capsys.readouterr().out
        assert "verify: FAIL" in out
        assert "re-derivation: FAIL" in out
        assert "manifest: FAIL" in out

    def test_mislabelled_geometry_fails_run_naming_the_failures(self, tmp_path, capsys):
        # The J = 15 offsets of P(3, GF(2)) labelled P(3, GF(4)), of J 85.
        source = tmp_path / "graph.json"
        source.write_text(
            json.dumps({"J": 15, "base_offsets": [0, 1, 2, 4, 5, 8, 10], "geometry": [3, 2, 2]})
        )
        out = tmp_path / "run"
        assert main(["run", "--graph", str(source), "--q", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: incidence self-check failed for P(3, GF(2^2)): order 15 != 85; "
            "degree 7 != 21; rows 0 and 1 share 3 points, expected 5\n"
        )
        assert not out.exists()

    def test_mislabelled_geometry_fails_verify_naming_the_failures(
        self, run15_dir, tmp_path, capsys
    ):
        work = tmp_path / "mislabelled"
        shutil.copytree(run15_dir, work)
        graph = read_json(work / "graph.json")
        graph["geometry"] = [3, 2, 2]
        (work / "graph.json").write_text(json.dumps(graph))
        assert main(["verify", "--out", str(work)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "incidence: FAIL (P(3, 2, 2): order 15 != 85; degree 7 != 21; "
            "rows 0 and 1 share 3 points, expected 5)"
        )
        assert lines[-1] == "verify: FAIL"

    def test_mislabelled_expanded_geometry_fails_run_and_verify(self, pg15_dir, tmp_path, capsys):
        # An expanded graph is checked through its real J and offsets: the
        # J = 15 graph expanded to 16 passes as P(3, GF(2)) and fails
        # relabelled as P(3, GF(4)).
        expanded = tmp_path / "expanded"
        argv = ["expand", "--graph", str(pg15_dir / "graph.json"), "--alpha", "1"]
        assert main([*argv, "--out", str(expanded)]) == 0
        run = tmp_path / "run"
        assert main(["run", "--graph", str(expanded / "graph.json"), "--q", "2", "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(run)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "incidence: ok (P(3, 2, 1))"

        def relabelled(path):
            graph = read_json(path)
            graph["geometry"] = [3, 2, 2]
            return json.dumps(graph)

        mislabelled = tmp_path / "mislabelled.json"
        mislabelled.write_text(relabelled(expanded / "graph.json"))
        bad = tmp_path / "bad"
        assert main(["run", "--graph", str(mislabelled), "--q", "2", "--out", str(bad)]) == 1
        failures = "order 15 != 85; degree 7 != 21; rows 0 and 1 share 3 points, expected 5"
        assert capsys.readouterr().err == (
            f"error: incidence self-check failed for P(3, GF(2^2)): {failures}\n"
        )
        assert not bad.exists()
        (run / "graph.json").write_text(relabelled(run / "graph.json"))
        assert main(["verify", "--out", str(run)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"incidence: FAIL (P(3, 2, 2): {failures})"
        assert lines[-1] == "verify: FAIL"

    def test_unfolded_run_ratio_is_one(self, tmp_path, capsys):
        out = tmp_path / "flat"
        assert main(["run", "--geometry", "3,2,1", "--q", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ratio 1.00" in text
        assert "verify: PASS" in text

    def test_missing_artifacts_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["verify", "--out", str(empty)]) == 2
        assert "missing artifact" in capsys.readouterr().err

    def test_fresh_pipeline_inputs(self, capsys):
        assert main(["verify", "--geometry", "3,2,1", "--q", "3"]) == 0
        assert "verify: PASS" in capsys.readouterr().out

    def test_fresh_pipeline_replays_design_and_reference_once(self, monkeypatch, capsys):
        import pgfold.cli as cli

        replayed_q = []
        original = cli.simulate

        def counting(files, *args, **kwargs):
            replayed_q.append(json.loads(files["plan.json"])["q"])
            return original(files, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate", counting)
        assert main(["verify", "--geometry", "3,2,1", "--q", "3"]) == 0
        assert "verify: PASS" in capsys.readouterr().out
        # The folded design, then its unfolded q = 1 reference.
        assert replayed_q == [3, 1]

    def test_stored_run_is_compared_with_an_in_memory_render(
        self, run15_dir, monkeypatch, capsys
    ):
        import pgfold.cli as cli

        written_q = []
        original = cli.write_run_directory

        def counting(out_dir, graph, plan, *args, **kwargs):
            written_q.append(plan.q)
            return original(out_dir, graph, plan, *args, **kwargs)

        monkeypatch.setattr(cli, "write_run_directory", counting)
        assert main(["verify", "--out", str(run15_dir)]) == 0
        assert "re-derivation: ok" in capsys.readouterr().out
        # The unfolded q = 1 reference replays from its render, so nothing
        # is written.
        assert written_q == []

    @pytest.mark.parametrize(
        "name, key, value, cause",
        [
            ("graph.json", "J", "x", "design: FAIL (graph.json: J must be an integer, got 'x')"),
            (
                "plan.json",
                "q",
                5,
                "design: FAIL (plan.json does not fit graph.json: "
                "fold plan was built for a different graph order)",
            ),
            ("plan.json", "pipeline_level", None, "design: FAIL (plan.json: pipeline_level missing)"),
            ("plan.json", "T", "1", "design: FAIL (plan.json: T must be an integer, got '1')"),
            (
                "plan.json",
                "pipeline_level",
                "graph",
                "design: FAIL (plan.json does not fit graph.json: "
                "graph-level pipelining requires design option 2",
            ),
            (
                "graph.json",
                "geometry",
                [3, 1, 1],
                "incidence: FAIL (graph.json geometry: field order must be >= 2)",
            ),
        ],
    )
    def test_malformed_design_file_fails_with_cause(
        self, run15_dir, tmp_path, capsys, name, key, value, cause
    ):
        work = tmp_path / "malformed"
        shutil.copytree(run15_dir, work)
        data = read_json(work / name)
        if value is None:
            del data[key]
        else:
            data[key] = value
        (work / name).write_text(json.dumps(data))
        assert main(["verify", "--out", str(work)]) == 1
        out = capsys.readouterr().out
        assert cause in out
        assert out.endswith("verify: FAIL\n")

    @pytest.mark.parametrize("failure", ["report", "structure"])
    def test_throughput_requires_a_passing_reference(
        self, run15_dir, monkeypatch, capsys, failure
    ):
        import pgfold.cli as cli

        original = cli.simulate

        def failing_reference(files, *args, **kwargs):
            report = original(files, *args, **kwargs)
            if json.loads(files["plan.json"])["q"] == 1:
                if failure == "structure":
                    raise SimulationStructureError("timing.json: injected")
                report.conflicts.append("injected conflict")
            return report

        monkeypatch.setattr(cli, "simulate", failing_reference)
        assert main(["verify", "--out", str(run15_dir)]) == 1
        out = capsys.readouterr().out
        assert "simulation: ok" in out
        assert "throughput: FAIL (q = 1 reference: " in out
        assert out.endswith("verify: FAIL\n")


class TestHostileFiles:
    """Stored files that do not decode or parse end in exit 1 with the file
    named, never in a traceback."""

    @pytest.mark.parametrize("name", ["timing.json", "write_lut_row.csv"])
    def test_non_utf8_file_is_named(self, run15_dir, tmp_path, capsys, name):
        work = tmp_path / "bytes"
        shutil.copytree(run15_dir, work)
        with (work / name).open("ab") as handle:
            handle.write(b"\xff\xfe")
        assert main(["simulate", "--out", str(work)]) == 1
        captured = capsys.readouterr()
        assert f"structural inconsistency: {name}: not UTF-8" in captured.err
        assert captured.out == "simulate: FAIL\n"
        assert main(["verify", "--out", str(work)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "incidence",
            "schedule balance and endpoints",
            "re-derivation",
            "manifest",
            "simulation",
            "verify",
        ]
        # re-derivation, manifest and simulation each name the file.
        for line in lines[2:5]:
            assert ": FAIL (" in line and f"{name}: not UTF-8" in line
        assert lines[-1] == "verify: FAIL"

    @pytest.mark.parametrize(
        "old, new",
        [('"format_version": 1', '"format_version": 2'), ('\n  "files"', '\n\t"files"')],
    )
    def test_manifest_must_be_as_emitted(self, run15_dir, tmp_path, capsys, old, new):
        # Every digest still matches its file; only the manifest's own
        # bytes changed.
        work = tmp_path / "manifest"
        shutil.copytree(run15_dir, work)
        text = (work / "manifest.json").read_text(encoding="utf-8")
        assert old in text
        (work / "manifest.json").write_text(text.replace(old, new), encoding="utf-8")
        assert main(["verify", "--out", str(work)]) == 1
        out = capsys.readouterr().out
        assert (
            "manifest: FAIL (['manifest.json is not the manifest emitted for its digests'])"
        ) in out.splitlines()

    @pytest.mark.parametrize("text", ["not json", "[]", '{"files": 3}'])
    def test_malformed_manifest_is_named(self, run15_dir, tmp_path, capsys, text):
        work = tmp_path / "manifest"
        shutil.copytree(run15_dir, work)
        (work / "manifest.json").write_text(text)
        assert main(["verify", "--out", str(work)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "manifest: FAIL (manifest.json: " in captured.out
        assert "simulation: ok" in captured.out
        assert captured.out.endswith("verify: FAIL\n")
        assert main(["simulate", "--out", str(work)]) in (1, 2)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "manifest.json" in captured.err

    def test_wrongly_typed_graph_field_fails_simulate(self, run15_dir, tmp_path, capsys):
        work = tmp_path / "typed"
        shutil.copytree(run15_dir, work)
        graph = read_json(work / "graph.json")
        graph["J"] = "x"
        (work / "graph.json").write_text(json.dumps(graph))
        assert main(["simulate", "--out", str(work)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "graph.json: J must be an integer, got 'x'" in captured.err

    def test_order_disagreeing_with_plan_fails_simulate(self, run15_dir, tmp_path, capsys):
        work = tmp_path / "order"
        shutil.copytree(run15_dir, work)
        graph = read_json(work / "graph.json")
        graph["J"] = 1000000
        (work / "graph.json").write_text(json.dumps(graph))
        assert main(["simulate", "--out", str(work)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert (
            "graph.json: J 1000000 disagrees with plan.json: "
            "q × units_per_side = 3 × 5 = 15" in captured.err
        )
        assert captured.out == "simulate: FAIL\n"

    def test_verify_makes_no_scratch_directory(self, run15_dir, monkeypatch, capsys):
        import tempfile

        def forbidden(*args, **kwargs):
            raise AssertionError("verify made a scratch directory")

        monkeypatch.setattr(tempfile, "TemporaryDirectory", forbidden)
        monkeypatch.setattr(tempfile, "mkdtemp", forbidden)
        for inputs in (["--out", str(run15_dir)], ["--geometry", "3,2,1", "--q", "3"]):
            assert main(["verify", *inputs]) == 0
            assert capsys.readouterr().out.endswith("verify: PASS\n")


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "modrun"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pgfold",
                "run",
                "--geometry",
                "3,2,1",
                "--q",
                "3",
                "--emit",
                "csv,json",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "run: PASS" in proc.stdout

    @pytest.mark.parametrize("tampered", [False, True], ids=["passing", "failing"])
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_closed_stdout_exits_one_without_a_traceback(
        self, run15_dir, tmp_path, command, tampered
    ):
        # The reader of stdout has gone, as in `pgfold simulate | true`.
        run = tmp_path / "run"
        shutil.copytree(run15_dir, run)
        if tampered:
            netlist = read_json(run / "netlist.json")
            family = netlist["wire_families"][0]
            family["folded_offset"] = (family["folded_offset"] + 1) % 5
            (run / "netlist.json").write_text(json.dumps(netlist), encoding="utf-8")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pgfold", command, "--out", str(run)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2
