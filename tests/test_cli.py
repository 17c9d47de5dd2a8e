"""CLI surface: commands, JSON reports, exit codes, and the result cache."""

import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from decimal import Decimal

import pytest

import compseries
from compseries import bounds, catalog, cli, config, formulas, series

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# count


def test_count_formula_elementary(capsys):
    code, rep, _ = run_json(capsys, "count", "--group", "E(2,6)")
    assert code == 0
    assert rep["result"]["count"] == "615195"
    assert rep["result"]["method"] == "formula:elementary-sylow"


def test_count_cyclic_formula(capsys):
    code, rep, _ = run_json(capsys, "count", "--group", "Z360")
    assert code == 0
    assert rep["result"]["count"] == "60"
    assert rep["result"]["method"] == "formula:cyclic"


def test_count_brute_mode(capsys):
    code, rep, _ = run_json(capsys, "count", "--group", "Z360", "--mode", "brute")
    assert code == 0
    assert rep["result"]["count"] == "60"
    assert rep["result"]["method"] == "brute-force"


def test_count_nonabelian_defaults_to_brute(capsys):
    code, rep, _ = run_json(capsys, "count", "--group", "S4")
    assert code == 0
    assert rep["result"]["count"] == "3"
    assert rep["result"]["method"] == "brute-force"


def test_count_cross_check(capsys):
    code, rep, _ = run_json(capsys, "count", "--group", "E(2,5)", "--cross-check")
    assert code == 0
    methods = rep["result"]["by_method"]
    assert set(methods) == {"formula:elementary-sylow", "brute-force"}
    assert len(set(methods.values())) == 1


def test_count_cross_check_with_order_two_and_three_atoms(capsys):
    # S2 and A3 are the cyclic groups of order 2 and 3
    code, rep, _ = run_json(capsys, "count", "--group", "S2xZ2xA3", "--cross-check")
    assert code == 0
    assert rep["result"]["by_method"] == {"formula:elementary-sylow": "9", "brute-force": "9"}


def test_count_cross_check_mismatch_exits_3(capsys, monkeypatch):
    from compseries.series import SeriesCount

    monkeypatch.setattr(series, "count_series", lambda G: SeriesCount(999, "brute-force"))
    code, rep, _ = run_json(capsys, "count", "--group", "E(2,3)", "--cross-check")
    assert code == 3
    assert rep["result"]["mismatch"] is True


def test_count_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "count", "--group", "Zoo")
    assert code == 2 and "error" in err


def test_count_abelian_without_a_formula_is_brute(capsys):
    # Z4 x Z2: abelian, but neither cyclic nor with elementary abelian Sylow subgroups
    code, rep, _ = run_json(capsys, "count", "--group", "Ab(2^2+1)")
    assert code == 0
    assert rep["result"]["count"] == "5"
    assert rep["result"]["method"] == "brute-force"


def test_count_formula_unavailable_exits_1(capsys):
    code, _, err = run(capsys, "count", "--group", "S4", "--mode", "formula")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "count", "--group", "Ab(2^2+1)", "--mode", "formula")
    assert code == 1 and "no closed-form count" in err


def test_count_capacity_exits_4(capsys):
    # --element-cap is a global flag, so it precedes the subcommand
    code, _, err = run(capsys, "--element-cap", "100", "count", "--group", "A5xA5")
    assert code == 4 and "cap" in err


def test_count_plain_output_contains_value(capsys):
    code, out, _ = run(capsys, "count", "--group", "Z12")
    assert code == 0 and "3" in out


# ---------------------------------------------------------------------------
# group files


def test_count_group_file(capsys, tmp_path):
    path = tmp_path / "grp.json"
    path.write_text(json.dumps({"points": 3, "generators": [[1, 2, 0]]}))
    code, rep, _ = run_json(capsys, "count", "--group-file", str(path))
    assert code == 0
    assert rep["result"]["count"] == "1"  # Z3 is simple


def test_group_file_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "count", "--group-file", str(path))
    assert code == 2 and "error" in err


def test_group_file_undecodable_bytes_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "count", "--group-file", str(path))
    assert code == 2 and err.startswith("error:")


def test_group_file_with_a_5000_digit_integer_exits_2(capsys, tmp_path):
    # json.loads refuses to convert an integer of more than 4,300 digits
    path = tmp_path / "grp.json"
    path.write_text('{"points": ' + "1" * 5000 + ', "generators": []}')
    t0 = time.monotonic()
    code, out, err = run(capsys, "count", "--group-file", str(path))
    assert time.monotonic() - t0 < 2
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_group_file_missing_field_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": 3}))
    code, _, _ = run(capsys, "count", "--group-file", str(path))
    assert code == 2


def test_group_file_huge_points_without_generators_is_trivial(capsys, tmp_path):
    path = tmp_path / "grp.json"
    path.write_text(json.dumps({"points": 10**12, "generators": []}))
    code, rep, _ = run_json(capsys, "count", "--group-file", str(path))
    assert code == 0
    assert rep["result"]["count"] == "1"


def test_group_file_generator_shorter_than_points_exits_1(capsys, tmp_path):
    path = tmp_path / "grp.json"
    path.write_text(json.dumps({"points": 10**12, "generators": [[1, 0]]}))
    code, out, err = run(capsys, "count", "--group-file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "payload",
    [
        {"points": 3, "generators": 5},
        {"points": "a", "generators": [[1, 2, 0]]},
        {"points": 3, "generators": [["a", "b", "c"]]},
        {"points": 3, "generators": [[0.5, 1, 2]]},
        {"points": 3, "generators": [[True, False, 2]]},
    ],
    ids=["generators-int", "points-str", "entries-str", "entries-float", "entries-bool"],
)
def test_group_file_wrong_types_exit_2_with_one_line(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "count", "--group-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_non_integer_element_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("COMPSERIES_ELEMENT_CAP", "abc")
    code, out, err = run(capsys, "count", "--group", "Z12")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "COMPSERIES_ELEMENT_CAP" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "env, argv",
    [("0", []), ("-5", []), (None, ["--element-cap", "0"]), (None, ["--element-cap", "-1"])],
)
def test_non_positive_element_cap_exits_1(capsys, monkeypatch, env, argv):
    if env is None:
        monkeypatch.delenv("COMPSERIES_ELEMENT_CAP", raising=False)
    else:
        monkeypatch.setenv("COMPSERIES_ELEMENT_CAP", env)
    code, out, err = run(capsys, *argv, "count", "--group", "Z12")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "must be positive" in err
    assert len(err.splitlines()) == 1


def test_element_cap_flag_outranks_the_environment_in_count(capsys, monkeypatch):
    monkeypatch.setenv("COMPSERIES_ELEMENT_CAP", "8")
    code, rep, err = run_json(
        capsys, "--element-cap", "100", "count", "--group", "S4", "--mode", "brute"
    )
    assert code == 0, err
    assert rep["result"]["count"] == "3"


def test_element_cap_flag_outranks_the_environment_in_enumerate(capsys, monkeypatch):
    monkeypatch.setenv("COMPSERIES_ELEMENT_CAP", "8")
    code, out, err = run(capsys, "--element-cap", "100", "enumerate", "--group", "S4")
    assert code == 0, err
    assert len(out.splitlines()) == 3


def test_element_cap_flag_outranks_the_environment_in_lattice(capsys, monkeypatch):
    monkeypatch.setenv("COMPSERIES_ELEMENT_CAP", "8")
    code, rep, err = run_json(
        capsys, "--element-cap", "100", "lattice", "--group", "S4", "--what", "normal"
    )
    assert code == 0, err
    assert rep["result"]["count"] == 4
    # the flag holds for the one call only
    assert config.element_cap() == 8


def test_missing_group_argument_exits_2(capsys):
    code, _, _ = run(capsys, "count")
    assert code == 2


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_chains_as_json_lines(capsys):
    code, out, err = run(capsys, "enumerate", "--group", "Z12", "--json")
    assert code == 0
    chains = [json.loads(line) for line in out.strip().splitlines()]
    assert len(chains) == 3
    assert sorted(ch["orders"] for ch in chains) == [
        [1, 2, 4, 12],
        [1, 2, 6, 12],
        [1, 3, 6, 12],
    ]
    assert all(ch["subgroups"][0] == [0] for ch in chains)
    # the run report goes to stderr so stdout stays machine-readable
    assert json.loads(err)["result"]["chains"] == 3


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "E(2,3)", "--limit", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_enumerate_to_file(capsys, tmp_path):
    path = tmp_path / "chains.jsonl"
    code, out, _ = run(capsys, "enumerate", "--group", "A5", "--output", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["orders"] == [1, 60]


def _dumps_chain(ch):
    return json.dumps(
        {"orders": [t.order for t in ch.terms], "subgroups": [list(t.members) for t in ch.terms]}
    )


def test_enumerate_lines_are_json_dumps_of_the_chains(capsys):
    # E(2,3): three chains under each order-4 term, so 5, 8 and 20 stop mid-branch
    texts = ["Z1", "Z7", "Z12", "Z360", "S4", "D8xZ3", "E(2,4)", "A5", "Q8xS4"]
    texts += ["A5xS4", "E(2,2)xA5"]  # A5, simple of composite order, under other terms
    cases = [(text, None) for text in texts]
    cases += [("E(2,3)", limit) for limit in (1, 5, 8, 20)]
    for text, limit in cases:
        argv = ["enumerate", "--group", text] + (["--limit", str(limit)] if limit else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0, (text, limit)
        chains = series.enumerate_series(catalog.realize_text(text), limit)
        assert out.splitlines() == [_dumps_chain(ch) for ch in chains], (text, limit)


def test_enumerate_e26_prefix_digest(capsys, tmp_path):
    path = tmp_path / "e26.jsonl"
    code, _, _ = run(capsys, "enumerate", "--group", "E(2,6)", "--limit", "20000", "--output", str(path))
    assert code == 0
    assert hashlib.md5(path.read_bytes()).hexdigest() == "7d89e411248c5f226a96da0ccf036b2c"


def test_enumerate_into_a_closed_pipe_exits_0():
    # E(2,5) has 9,765 chains, far more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "compseries", "enumerate", "--group", "E(2,5)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    assert json.loads(proc.stdout.readline())["orders"][-1] == 32
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert "error:" not in err and "Traceback" not in err, err


class _PipeClosedAfter(io.RawIOBase):
    """A stdout pipe whose reader takes ``k`` lines and then closes its end.

    The first write after that raises BrokenPipeError; later writes are
    dropped, as they are once the CLI points the descriptor at os.devnull.
    """

    def __init__(self, k, fd):
        self.left, self.fd, self.lines, self.broken = k, fd, 0, False

    def writable(self):
        return True

    def fileno(self):
        return self.fd

    def write(self, b):
        if self.broken:
            return len(b)
        if not self.left:
            self.broken = True
            raise BrokenPipeError("the reader closed the pipe")
        data = b"".join(bytes(b).splitlines(keepends=True)[: self.left])
        n = data.count(b"\n")
        self.left -= n
        self.lines += n
        return len(data)


@pytest.mark.parametrize("k", [1, 10])
def test_enumerate_counts_the_chains_the_pipe_took(capsys, monkeypatch, k):
    fd = os.open(os.devnull, os.O_WRONLY)
    pipe = _PipeClosedAfter(k, fd)
    stdout = io.TextIOWrapper(io.BufferedWriter(pipe), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = cli.main(["enumerate", "--group", "E(2,5)", "--json"])
    finally:
        monkeypatch.undo()
        stdout.close()
        os.close(fd)
    assert code == 0
    assert pipe.lines == k
    assert json.loads(capsys.readouterr().err)["result"]["chains"] == k


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "--group", "S4", "--what", "subgroups"],
        ["verify", "--order-cap", "8"],
        ["catalog", "list"],
    ],
    ids=["lattice", "verify", "catalog-list"],
)
def test_a_reader_that_closes_stdout_early_ends_the_command_with_exit_0(capsys, monkeypatch, argv):
    # the reader takes one line, as `| head -c 10` would; the output, all
    # still buffered when the command returns, meets the closed pipe at the
    # flush in main, not at interpreter exit
    fd = os.open(os.devnull, os.O_WRONLY)
    pipe = _PipeClosedAfter(1, fd)
    stdout = io.TextIOWrapper(io.BufferedWriter(pipe), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = cli.main(argv)
    finally:
        monkeypatch.undo()
        stdout.close()
        os.close(fd)
    assert code == 0
    assert pipe.lines == 1 and pipe.broken
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text", ["E(2,5)", "A5"])
def test_a_broken_pipe_on_the_output_file_exits_1(capsys, monkeypatch, text):
    # an --output FIFO whose reader left is a failed write, not a reader of
    # stdout that took what it wanted; E(2,5)'s chains fill the buffer, so the
    # pipe breaks in the loop, and A5's one chain breaks it when the file closes
    fd = os.open(os.devnull, os.O_WRONLY)
    pipe = _PipeClosedAfter(0, fd)
    sink = io.TextIOWrapper(io.BufferedWriter(pipe), encoding="utf-8")
    monkeypatch.setattr(cli, "open", lambda *args: sink, raising=False)
    try:
        code, _, err = run(capsys, "enumerate", "--group", text, "--output", "fifo")
    finally:
        os.close(fd)
    assert code == 1
    assert pipe.broken
    assert err == "error: fifo: the reader closed the pipe\n"


# Runs `compseries` in a child and prints the child's peak RSS in KiB (Linux
# units).  ru_maxrss survives exec, so a process forked from the test runner
# would start out at the runner's size; the small interpreter in between
# keeps that out of the figure.
PEAK_RSS_CODE = (
    "import resource, subprocess, sys\n"
    "subprocess.run([sys.executable, '-m', 'compseries', *sys.argv[1:]], check=True)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_enumerate_memory_does_not_grow_with_the_chains():
    def peak_kib(limit):
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_CODE, "enumerate", "--group", "E(2,6)",
             "--limit", str(limit), "--output", os.devnull],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.splitlines()[-1])

    small, large = peak_kib(1000), peak_kib(100000)
    assert abs(large - small) < 8 * 1024, (small, large)


# ---------------------------------------------------------------------------
# bound / sweep


def test_bound_command(capsys):
    code, rep, _ = run_json(capsys, "bound", "64")
    assert code == 0 and rep["result"]["bound"] == "615195"


def test_bound_rejects_small_n(capsys):
    code, _, _ = run(capsys, "bound", "3")
    assert code == 1


def test_huge_count_is_emitted_in_full(capsys):
    # 6,051 digits, past the 4,300 that str() of an int allows by default
    value = formulas.count_elem_abelian(2, 200)
    code, rep, _ = run_json(capsys, "count", "--group", "E(2,200)")
    text = rep["result"]["count"]
    assert code == 0 and text.isdigit() and len(text) > 4300
    assert Decimal(text) == value


@pytest.mark.parametrize("mode", [("--mode", "auto"), ("--mode", "formula"), ("--cross-check",)])
def test_count_above_the_bound_cap_exits_4(capsys, mode):
    # floor(log2 |G|) = 1025: count(G) <= bound(|G|), which is refused there
    code, out, err = run(capsys, "count", "--group", "E(2,1025)", *mode)
    assert code == 4 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec", ["Z1000000000000000003", "E(1000000000000000003,1)", "Ab(1000000000000000003^1)"]
)
def test_count_of_a_large_prime_exits_4(capsys, spec):
    # 10**18 + 3 is prime: trial division would run to 10**9
    code, out, err = run(capsys, "count", "--group", spec)
    assert code == 4 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["count", "--group", "Z" + "1" * 5000], 4),
        (["enumerate", "--group", "Z" + "1" * 5000], 4),
        (["count", "--group", "E(2," + "1" * 5000 + ")"], 4),
        (["count", "--group", "E(2,1000000000000)"], 4),
        (["count", "--group", "Ab(2^1000000000000)"], 4),
        (["enumerate", "--group", "E(2,1000000000000)"], 4),
    ],
    ids=["count-Z-5000-digits", "enumerate-Z-5000-digits", "E-5000-digit-rank",
         "E-rank-1e12", "Ab-exponent-1e12", "enumerate-E-rank-1e12"],
)
def test_spec_past_the_bound_cap_is_refused_before_it_is_built(capsys, argv, exit_code):
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 2
    assert code == exit_code and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_count_of_a_smooth_large_order_still_factors(capsys):
    code, rep, _ = run_json(capsys, "count", "--group", f"Z{2**60}")
    assert code == 0
    assert rep["result"] == {
        "count": "1", "method": "formula:cyclic", "by_method": {"formula:cyclic": "1"}
    }


def test_bound_at_the_cap_is_emitted_in_full(capsys):
    n = 2**1025 - 1  # floor(log2 n) = 1024, the cap
    code, rep, _ = run_json(capsys, "bound", str(n))
    text = rep["result"]["bound"]
    assert code == 0 and text.isdigit()
    assert Decimal(text) == bounds.bound(n)


def test_bound_above_the_cap_exits_4(capsys):
    code, out, err = run(capsys, "bound", str(2**1025))
    assert code == 4 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_sweep_command(capsys):
    code, rep, _ = run_json(capsys, "sweep", "--max-n", "1000")
    assert code == 0
    assert rep["inputs"] == {"max_n": 1000}
    assert rep["result"]["violations"] == []
    assert rep["result"]["equality_attainers"] == [512]


def test_sweep_per_order_attainers(capsys):
    code, rep, _ = run_json(capsys, "sweep", "--max-n", "100", "--per-order")
    assert code == 0
    assert rep["result"]["equality_attainers"] == [64]
    assert rep["result"]["per_order_attainers"] == [4, 8, 16, 32, 64]


# ---------------------------------------------------------------------------
# verify / catalog / lattice


def test_verify_command(capsys):
    code, rep, _ = run_json(capsys, "verify", "--order-cap", "24")
    assert code == 0
    assert rep["result"]["failed"] == 0
    assert len(rep["result"]["checks"]) > 10


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_non_positive_order_cap_exits_1_before_any_check(capsys, cap):
    # the coprime and simple-product rows read no order cap, so they alone
    # would run and pass
    code, out, err = run(capsys, "verify", "--order-cap", cap)
    assert code == 1 and out == ""
    assert err == f"error: --order-cap must be positive, got {cap}\n"


def test_verify_plain_report_is_an_aligned_table(capsys):
    code, rep, _ = run_json(capsys, "verify", "--order-cap", "8")
    assert code == 0
    checks = rep["result"]["checks"]
    code, out, _ = run(capsys, "verify", "--order-cap", "8")
    assert code == 0
    *table, blank, summary = out.splitlines()
    assert blank == "" and summary == f"{len(checks)} checks, 0 failed"
    rows = [re.split(r"  +", line.rstrip(), maxsplit=2) for line in table]
    assert rows == [[c["name"], c["status"], c["detail"]] for c in checks]
    # the status column starts at the same place on every line
    assert len({line.index(c["status"] + " ") for line, c in zip(table, checks)}) == 1
    assert ["series count E(2,3)", "PASS", "brute=21 formula=21"] in rows


def test_catalog_list_plain_lines(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--max-order", "8")
    assert code == 0
    lines = out.splitlines()
    assert "     8  E(2,3)" in lines and "     6  S3" in lines
    pairs = [line.split() for line in lines]
    assert all(line == f"{int(o):>6}  {spec}" for line, (o, spec) in zip(lines, pairs))
    assert sorted(spec for _, spec in pairs) == sorted(
        name for name, _ in catalog.standard_roster(8)
    )


def test_catalog_list(capsys):
    code, rep, _ = run_json(capsys, "catalog", "list", "--max-order", "12")
    assert code == 0
    entries = rep["result"]["groups"]
    assert {"spec": "Z12", "order": 12} in entries
    assert all(e["order"] <= 12 for e in entries)


def test_lattice_subgroups(capsys):
    code, rep, _ = run_json(capsys, "lattice", "--group", "S3", "--what", "subgroups")
    assert code == 0
    assert rep["result"]["count"] == 6
    assert rep["result"]["orders"] == [1, 2, 2, 2, 3, 6]


def test_lattice_maximal_normal(capsys):
    code, rep, _ = run_json(
        capsys, "lattice", "--group", "Z12", "--what", "maximal-normal"
    )
    assert code == 0
    assert rep["result"]["orders"] == [4, 6]
    assert [0, 3, 6, 9] in rep["result"]["members"]


def test_lattice_plain_report_prints_one_line_per_subgroup(capsys):
    code, rep, _ = run_json(capsys, "lattice", "--group", "S3", "--what", "normal")
    assert code == 0
    code, out, _ = run(capsys, "lattice", "--group", "S3", "--what", "normal")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("  members:") + 1
    assert [json.loads(line) for line in lines[start:]] == rep["result"]["members"]
    # a flat list keeps one item per line
    assert lines[lines.index("  orders:") + 1 : start - 1] == ["    1", "    3", "    6"]


@pytest.mark.parametrize("group", ["E(2,9)", "Z2xZ256"])
def test_lattice_normal_of_a_large_abelian_group_exits_4(capsys, group):
    # the normal lattice of an abelian group is its whole subgroup lattice
    t0 = time.monotonic()
    code, out, err = run(capsys, "lattice", "--group", group, "--what", "normal")
    assert time.monotonic() - t0 < 2
    assert code == 4 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "subgroup-enumeration cap" in err


@pytest.mark.parametrize("what", ["subgroups", "normal"])
def test_lattice_past_the_join_cap_exits_4(capsys, monkeypatch, what):
    # E(2,6) has 2,825 subgroups, and E(2,5)xZ3 374 * 2 = 748; each is its
    # own central socle, so the gate refuses it by that count before any join
    for group, cap, count in [("E(2,6)", 1000, 2825), ("E(2,5)xZ3", 500, 748)]:
        monkeypatch.setattr(config, "SUBGROUP_JOIN_CAP", cap)
        t0 = time.monotonic()
        code, out, err = run(capsys, "lattice", "--group", group, "--what", what)
        assert time.monotonic() - t0 < 2
        assert code == 4 and out == ""
        assert err == f"error: {count} subgroups exceed the join-closure cap {cap}\n"


@pytest.mark.parametrize("what", ["subgroups", "normal"])
def test_lattice_past_the_join_cap_inside_the_closure_exits_4(capsys, monkeypatch, what):
    # Z2xD8xD8 has 2,428 subgroups, 484 of them normal, but its central
    # socle E(2,3) has 16 subgroups and meets its derived subgroup; so the
    # gate passes it, and the closure's own count stops it
    monkeypatch.setattr(config, "SUBGROUP_JOIN_CAP", 400)
    code, out, err = run(capsys, "lattice", "--group", "Z2xD8xD8", "--what", what)
    assert code == 4 and out == ""
    assert err == "error: 401 subgroups exceed the join-closure cap 400\n"


def test_lattice_of_e28_exits_4_at_the_join_cap(capsys):
    # order 256 is inside SUBGROUP_ENUM_CAP, but E(2,8) has 417,199 subgroups
    code, out, err = run(capsys, "lattice", "--group", "E(2,8)", "--what", "subgroups")
    assert code == 4 and out == ""
    assert "join-closure cap" in err and len(err.splitlines()) == 1, err


def test_brute_count_of_e29_exits_4_at_the_series_walk_cap(capsys):
    # E(2,9) has 8,283,458 subgroups, each a node of the count's memo; the
    # walk ran for about 150 s at 1.3 GB before the cap
    t0 = time.monotonic()
    code, out, err = run(capsys, "count", "--group", "E(2,9)", "--mode", "brute")
    assert time.monotonic() - t0 < 10
    assert code == 4 and out == ""
    assert err == "error: 8283458 subgroups exceed the series-walk cap 524288\n"


# Starts the CLI in a fresh interpreter whose address space is capped at
# 2 GiB, a cap that the parent process does not share.
CAPPED_CLI_CODE = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
    "from compseries.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


# The largest in-cap member of each catalog family, and products at the cap.
# The refused ones are refused from the subgroups of their centre's socle:
# 8,283,458 for E(2,9), doubled by the Z3 factor, and E(2,10)'s for E(2,10)xZ3.
# Those of E(2,8) and E(2,9) are doubled for E(2,8)xS3 and E(2,9)xS3, whose
# derived subgroup A3 meets the centre trivially.
@pytest.mark.parametrize(
    "spec, code, reply",
    [
        ("Z4096", 0, "1"),
        ("D4096", 0, "4095"),
        ("A5xA5", 0, "2"),
        ("E(2,10)", 4, 229755605),
        ("E(2,12)", 4, 488176700923),
        ("E(3,7)", 4, 2052656),
        ("E(2,8)xS3", 4, 834398),
        ("E(2,9)xS3", 4, 16566916),
        ("E(2,9)xZ3", 4, 16566916),
        ("E(2,10)xZ3", 4, 459511210),
    ],
)
def test_the_cap_roster_ends_within_10_s_in_bounded_memory(spec, code, reply):
    pytest.importorskip("resource")
    argv = ["count", "--group", spec, "--mode", "brute", "--json"]
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI_CODE, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=10,
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["result"]["count"] == reply
        assert proc.stderr == ""
    else:
        assert proc.stdout == ""
        assert proc.stderr == f"error: {reply} subgroups exceed the series-walk cap 524288\n"


# ---------------------------------------------------------------------------
# cache


def test_cache_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COMPSERIES_CACHE", str(tmp_path))
    code, rep, _ = run_json(capsys, "count", "--group", "Z60")
    assert code == 0 and rep["cache_hit"] is False
    assert list(tmp_path.glob("*.json"))
    code, rep2, _ = run_json(capsys, "count", "--group", "Z60")
    assert code == 0 and rep2["cache_hit"] is True
    assert rep2["result"] == rep["result"]


def test_cache_key_distinguishes_modes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COMPSERIES_CACHE", str(tmp_path))
    run_json(capsys, "count", "--group", "Z60")
    code, rep, _ = run_json(capsys, "count", "--group", "Z60", "--mode", "brute")
    assert code == 0 and rep["cache_hit"] is False


def _report_not_object(entry):
    key = json.loads(entry.read_text())["cache_key"]
    return json.dumps({"cache_key": key, "report": 5})


@pytest.mark.parametrize(
    "payload",
    ["{broken", "null", "[]", '"x"', _report_not_object],
    ids=["broken", "null", "list", "string", "report-not-object"],
)
def test_corrupt_cache_entry_recomputed_with_warning(capsys, tmp_path, monkeypatch, payload):
    monkeypatch.setenv("COMPSERIES_CACHE", str(tmp_path))
    run_json(capsys, "count", "--group", "Z60")
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(payload if isinstance(payload, str) else payload(entry))
    code, rep, err = run_json(capsys, "count", "--group", "Z60")
    assert code == 0
    assert rep["cache_hit"] is False
    assert rep["result"]["count"] == "12"
    assert "corrupt" in err


def test_unusable_cache_dir_skips_the_write_with_warning(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("COMPSERIES_CACHE", str(blocker))
    code, rep, err = run_json(capsys, "count", "--group", "Z12")
    assert code == 0
    assert rep["result"]["count"] == "3"
    assert err.count("\n") == 1 and err.startswith("warning:")


def test_cache_misses_after_group_file_is_rewritten(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COMPSERIES_CACHE", str(tmp_path / "cache"))
    path = tmp_path / "grp.json"
    # the Klein four group, then Z4, under the same path
    path.write_text(json.dumps({"points": 4, "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}))
    code, rep, _ = run_json(capsys, "count", "--group-file", str(path))
    assert code == 0 and rep["result"]["count"] == "3"
    code, rep, _ = run_json(capsys, "count", "--group-file", str(path))
    assert code == 0 and rep["cache_hit"] is True
    path.write_text(json.dumps({"points": 4, "generators": [[1, 2, 3, 0]]}))
    code, rep, _ = run_json(capsys, "count", "--group-file", str(path))
    assert code == 0 and rep["cache_hit"] is False
    assert rep["result"]["count"] == "1"


def test_cache_key_includes_element_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COMPSERIES_CACHE", str(tmp_path))
    run_json(capsys, "count", "--group", "Z60")
    code, rep, _ = run_json(capsys, "--element-cap", "100", "count", "--group", "Z60")
    assert code == 0 and rep["cache_hit"] is False


def test_cache_entry_written_under_other_sources_misses(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COMPSERIES_CACHE", str(tmp_path))
    real = cli._source_digest()
    assert len(real) == 64 and real == cli._source_digest()
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    code, rep, _ = run_json(capsys, "count", "--group", "Z60")
    assert code == 0 and rep["cache_hit"] is False
    code, rep, _ = run_json(capsys, "count", "--group", "Z60")
    assert code == 0 and rep["cache_hit"] is True
    monkeypatch.setattr(cli, "_source_digest", lambda: real)
    code, rep, _ = run_json(capsys, "count", "--group", "Z60")
    assert code == 0 and rep["cache_hit"] is False
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_sources_are_not_read_without_a_cache(capsys, monkeypatch):
    monkeypatch.delenv("COMPSERIES_CACHE", raising=False)

    def refuse():
        raise AssertionError("the source digest was computed with no cache set")

    monkeypatch.setattr(cli, "_source_digest", refuse)
    code, rep, _ = run_json(capsys, "count", "--group", "Z60")
    assert code == 0 and rep["result"]["count"] == "12"


def test_no_cache_dir_means_no_files(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("COMPSERIES_CACHE", raising=False)
    run_json(capsys, "count", "--group", "Z60")
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# the package's names, bound on first access


def test_every_public_name_is_its_modules_object():
    for name in compseries.__all__:
        value = getattr(compseries, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert vars(compseries)[name] is value, name  # bound on first access


def test_the_public_names_are_46_and_unique():
    assert len(set(compseries.__all__)) == len(compseries.__all__) == 46


def test_an_unknown_package_name_raises_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        compseries.no_such_name
    assert not hasattr(compseries, "no_such_name")


def test_dir_lists_every_public_name_and_a_star_import_binds_them():
    # in a fresh interpreter, so that dir() runs before any name is bound
    code = (
        "import json\n"
        "import compseries\n"
        "unlisted = sorted(set(compseries.__all__) - set(dir(compseries)))\n"
        "from compseries import *\n"
        "names = compseries.__all__\n"
        "unbound = [n for n in names if globals().get(n) is not getattr(compseries, n)]\n"
        "print(json.dumps([unlisted, unbound, '__version__' in dir(compseries)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], True]


# ---------------------------------------------------------------------------
# entry points


def child_env():
    """The caller's environment, with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(pathlib.Path(compseries.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def console_script_command():
    """How to start the `compseries` console script.

    The entry point that this checkout's pyproject.toml declares, started the
    way the wrapper that `pip install` generates starts it.
    """
    toml = tomllib or pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = toml.load(fh).get("project", {}).get("scripts", {})
    assert "compseries" in scripts, "pyproject.toml declares no compseries script"
    module, sep, func = scripts["compseries"].partition(":")
    assert sep and all(
        name.isidentifier() for name in [*module.split("."), func]
    ), scripts["compseries"]
    code = (
        f"import sys; from {module} import {func} as f; "
        "sys.argv[0] = 'compseries'; sys.exit(f())"
    )
    return [sys.executable, "-c", code]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "compseries", "bound", "64"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "615195" in proc.stdout


def test_console_script():
    proc = subprocess.run(
        [*console_script_command(), "count", "--group", "Z12", "--json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["count"] == "3"


# Imports the package, then the CLI, in a fresh interpreter, runs the
# commands given as JSON in argv[1], then `count --group S4`, and prints
# whether numpy was loaded, and which of the package's submodules, after
# each step, with the exit codes.
COLD_START_CODE = (
    "import contextlib, io, json, sys\n"
    "def loaded():\n"
    "    mods = sorted(m for m in sys.modules if m.startswith('compseries.'))\n"
    "    return {'numpy': 'numpy' in sys.modules, 'modules': mods}\n"
    "import compseries\n"
    "seen = {'import': loaded()}\n"
    "import compseries.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    seen['codes'] = [compseries.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
    "    seen['table_free'] = loaded()\n"
    "    seen['s4_code'] = compseries.cli.main(['count', '--group', 'S4'])\n"
    "seen['s4'] = loaded()\n"
    "print(json.dumps(seen))\n"
)

TABLE_MODULES = {"compseries.lattice", "compseries.series", "compseries.verification"}


def test_table_free_commands_never_load_numpy():
    commands = [
        (["bound", "64"], 0),
        (["sweep", "--max-n", "1000"], 0),
        (["catalog", "list", "--max-order", "64"], 0),
        (["count", "--group", "E(2,6)"], 0),  # by formula
        (["count", "--group", "Q9"], 2),
        (["bound", str(2**1100)], 4),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_CODE, json.dumps([argv for argv, _ in commands])],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert not seen["import"]["numpy"]
    assert set(seen["import"]["modules"]) <= {"compseries.errors"}
    assert seen["codes"] == [code for _, code in commands]
    assert not seen["table_free"]["numpy"]
    assert not TABLE_MODULES & set(seen["table_free"]["modules"])
    # the first table loads them, so the checks above cannot pass vacuously
    assert seen["s4_code"] == 0 and seen["s4"]["numpy"]
    assert {"compseries.lattice", "compseries.series"} <= set(seen["s4"]["modules"])


def test_count_of_a_large_table_never_loads_numpy_random():
    # A5xS4 has order 1440: its table is validated without sampled triples
    code = (
        "import contextlib, io, json, sys\n"
        "from compseries import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(['count', '--group', 'A5xS4', '--json'])\n"
        "count = json.loads(out.getvalue())['result']['count']\n"
        "print(json.dumps([code, count, 'numpy' in sys.modules, 'numpy.random' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, "15", True, False]
