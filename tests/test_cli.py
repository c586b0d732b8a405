import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueops import (
    Clique, CliqueError, MagmaError, arcs_of, dyck_decode, dyck_encode,
    is_nesting_free,
)
from cliqueops.cli import UsageError, _parse_colored_word, main

from magma_strategies import D1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_magma_check(capsys):
    code, out, _ = run(capsys, "magma-check", "--magma", "D:0")
    assert code == 0
    assert "right cancelable: False" in out
    code, out, _ = run(capsys, "magma-check", "--magma", "E:1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["right_cancelable"] is True
    assert payload["nontrivial_unit_divisors"] is True


def test_magma_check_bad_spec(capsys):
    code, _, err = run(capsys, "magma-check", "--magma", "X:9")
    assert code == 2
    assert "error" in err


def test_compose_unit_law(capsys, tmp_path):
    lhs = tmp_path / "p.json"
    rhs = tmp_path / "q.json"
    lhs.write_text(json.dumps(
        {"magma": "Z", "arity": 2, "labels": {"1,3": "4", "1,2": "-1"}}
    ))
    rhs.write_text(json.dumps({"magma": "Z", "arity": 1, "labels": {}}))
    code, out, _ = run(
        capsys, "compose", "--magma", "Z", "--lhs", str(lhs), "--rhs", str(rhs),
        "--index", "2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{
        "coefficient": "1/1",
        "clique": {"magma": "Z", "arity": 2, "labels": {"1,2": "-1", "1,3": "4"}},
    }]


def test_compose_in_h_basis(capsys, tmp_path):
    lhs = tmp_path / "p.json"
    rhs = tmp_path / "q.json"
    lhs.write_text(json.dumps(
        {"magma": "Z", "arity": 2, "labels": {"2,3": "1"}}
    ))
    rhs.write_text(json.dumps(
        {"magma": "Z", "arity": 2, "labels": {"1,3": "1"}}
    ))
    code, out, _ = run(
        capsys, "compose", "--magma", "Z", "--lhs", str(lhs), "--rhs", str(rhs),
        "--index", "2", "--basis", "H", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    coeffs = sorted(term["coefficient"] for term in payload["terms"])
    assert coeffs == ["1/1", "1/1", "2/1"]


def test_compose_variant_annihilation(capsys, tmp_path):
    lhs = tmp_path / "p.json"
    rhs = tmp_path / "q.json"
    lhs.write_text(json.dumps(
        {"magma": "D:0", "arity": 4, "labels": {"1,4": "0"}}
    ))
    rhs.write_text(json.dumps(
        {"magma": "D:0", "arity": 3, "labels": {"1,3": "0", "2,4": "0"}}
    ))
    code, out, _ = run(
        capsys, "compose", "--magma", "D:0", "--lhs", str(lhs), "--rhs", str(rhs),
        "--index", "3", "--variant", "deg:1",
    )
    assert code == 0
    assert out.strip() == "0"


def test_enumerate(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--magma", "D:0", "--arity", "2", "--variant", "bub",
        "--json",
    )
    assert code == 0
    assert len(json.loads(out)) == 8
    code, out, _ = run(capsys, "enumerate", "--magma", "D:0", "--arity", "2")
    assert out.strip().endswith("total: 8")


def test_sequence_bfile_matches_paper(capsys):
    code, out, _ = run(
        capsys, "sequence", "--variant", "deg:1", "--magma", "D:0",
        "--max-arity", "6", "--format", "b",
    )
    assert code == 0
    assert out == "1 1\n2 4\n3 10\n4 26\n5 76\n6 232\n"


def test_sequence_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "sequence", "--variant", "nes", "--magma", "D:0",
        "--max-arity", "3", "--format", "csv",
    )
    assert out == "arity,count\n1,1\n2,5\n3,14\n"
    code, out, _ = run(
        capsys, "sequence", "--variant", "nes", "--magma", "D:0",
        "--max-arity", "3", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["entries"] == [[1, 1], [2, 5], [3, 14]]
    assert payload["provenance"] == "both"


@pytest.mark.parametrize("typed, recorded", [
    (" cro:01 ", "cro:1"),
    ("lab:0,\U0001d7d9;d_1,\U0001d7d9,0;0,\U0001d7d9,d_1",
     "lab:0,\U0001d7d9;0,d_1,\U0001d7d9;0,d_1,\U0001d7d9"),
], ids=["padded-bound", "unsorted-lab"])
def test_sequence_records_the_variant_it_counted(capsys, typed, recorded):
    code, out, _ = run(
        capsys, "sequence", "--variant", typed, "--magma", "D:1",
        "--max-arity", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["variant"] == recorded


def test_label_restricted_sequence_has_a_formula(capsys):
    code, out, _ = run(
        capsys, "sequence", "--variant", "lab:\U0001d7d9,0;\U0001d7d9,0,d_1;\U0001d7d9,0,d_1",
        "--magma", "D:1", "--max-arity", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["provenance"] == "both"


def test_sequence_inapplicable_magma(capsys):
    code, _, err = run(
        capsys, "sequence", "--variant", "deg:1", "--magma", "N:2",
        "--max-arity", "3",
    )
    assert code == 2
    assert "unit divisors" in err


def test_verify_axioms_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "axioms", "--magma", "N:2", "--max-arity", "4",
    )
    assert code == 0
    assert "axioms: ok" in out


def test_verify_all_small(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--magma", "D:0", "--max-arity", "3",
        "--samples", "50",
    )
    assert code == 0
    for token in ("axioms", "symmetries", "cyclic", "basic", "ideal:deg:1",
                  "inclusions", "ratfct-laws", "known-ops"):
        assert token in out


def test_basic_basis_below_max_arity_three_is_injective(capsys):
    # D:0 is not right cancelable, but a collision needs a composite of
    # arity 3: at max arity 2 every right-composition map is injective
    code, out, _ = run(capsys, "verify", "basic", "--magma", "D:0", "--max-arity", "2")
    assert (code, out) == (0, "basic-basis: ok, 25 instances checked\n")
    code, out, _ = run(capsys, "verify", "all", "--magma", "D:0", "--max-arity", "2")
    assert code == 0 and "basic-basis: ok, 25 instances checked\n" in out


def test_max_arity_zero_is_refused_by_the_arity_rule(capsys):
    argv = ["sequence", "--variant", "nes", "--magma", "D:0", "--max-arity", "0"]
    assert run(capsys, *argv) == (2, "", "error: arity must be positive, not 0\n")


def test_vacuous_verdicts_say_so(capsys):
    # cro:1 and cro:2 have no non-member below arities 4 and 5
    vacuous = "ok (vacuous: nothing to check), 0 instances checked"
    code, out, _ = run(capsys, "verify", "ideal", "--magma", "D:0", "--max-arity", "3")
    assert code == 0
    assert f"ideal:cro:1: {vacuous}\n" in out.splitlines(keepends=True)
    assert "ideal:cro:0: ok, 64 instances checked\n" in out.splitlines(keepends=True)
    argv = ["verify", "ideal", "--magma", "D:0", "--variant", "cro:2", "--max-arity", "4"]
    assert run(capsys, *argv) == (0, f"ideal:cro:2: {vacuous}\n", "")
    code, out, _ = run(capsys, *argv, "--json")
    assert json.loads(out) == [{"name": "ideal:cro:2", "ok": True, "checked": 0,
                                "complete": True, "counterexample": None}]


def test_primes(capsys):
    code, out, _ = run(capsys, "primes", "--magma", "D:0", "--max-size", "4")
    assert code == 0
    assert out.splitlines()[1:] == ["1 0 0 0", "2 8 1 1", "3 16 1 1", "4 352 11 5"]


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_primes_counts_each_census_once_per_size(capsys, monkeypatch, fmt):
    # one white-prime and one minimal-prime pattern pass per size; the
    # prime count is derived from the white one, not counted again
    from cliqueops import enumeration

    real = enumeration._prime_pattern_weight
    calls = []

    def counted(magma, arity, want_minimal, budget):
        calls.append((arity, want_minimal))
        return real(magma, arity, want_minimal, budget)

    monkeypatch.setattr(enumeration, "_prime_pattern_weight", counted)
    code, out, _ = run(capsys, "primes", "--magma", "D:0", "--max-size", "4", *fmt)
    assert code == 0
    assert sorted(calls) == [(n, m) for n in range(1, 5) for m in (False, True)]
    if fmt:
        assert [row["prime"] for row in json.loads(out)] == [0, 8, 16, 352]


def test_dyck_round_trip_cli(capsys, tmp_path):
    clique_file = tmp_path / "c.json"
    clique_file.write_text(json.dumps(
        {"magma": "D:0", "arity": 2, "labels": {"1,3": "0"}}
    ))
    code, out, _ = run(
        capsys, "dyck", "--magma", "D:0", "--encode", str(clique_file),
    )
    assert code == 0
    word = out.strip()
    assert word == "aa[0]abbb"
    code, out, _ = run(
        capsys, "dyck", "--magma", "D:0", "--decode", word, "--json",
    )
    assert code == 0
    assert json.loads(out)["labels"] == {"1,3": "0"}


def test_ratfct_check(capsys):
    code, out, _ = run(capsys, "verify", "ratfct", "--samples", "20")
    assert code == 0
    assert out == (
        "ratfct-laws: ok, 60 instances checked\n"
        "ratfct-kernel: ok, 2 instances checked\n"
    )


def test_known_ops_check(capsys):
    code, out, _ = run(capsys, "verify", "known-ops", "--max-arity", "3")
    assert code == 0
    assert out == "known-ops: ok, 427 instances checked\n"


@pytest.mark.parametrize("command", ["ratfct-check", "known-ops-check"])
def test_removed_commands_exit_two(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ratfct", "--samples", "20"],
    ["known-ops", "--max-arity", "3"],
], ids=["ratfct", "known-ops"])
def test_magma_free_verifiers_ignore_the_magma(capsys, argv):
    for fmt in ([], ["--json"]):
        bare = run(capsys, "verify", *argv, *fmt)
        with_magma = run(capsys, "verify", *argv, "--magma", "D:0", *fmt)
        assert bare == with_magma
        assert bare[0] == 0
    reports = json.loads(bare[1])  # the --json run
    assert [r["ok"] for r in reports] == [True] * len(reports)
    assert all(r["checked"] > 0 and r["complete"] for r in reports)


@pytest.mark.parametrize("argv, module, name, arity", [
    (["known-ops", "--max-arity", "5"], "knownops", "verify_known_ops", 5),
    (["ratfct", "--max-arity", "6"], "ratfct", "verify_rf_laws", 6),
    (["product", "--magma", "prod(D:0,D:0)", "--max-arity", "4"],
     "verify", "verify_product_iso", 4),
], ids=["known-ops", "ratfct", "product"])
def test_max_arity_reaches_the_verifier(capsys, monkeypatch, argv, module, name, arity):
    from cliqueops import VerifyReport

    seen = []

    def record(*args, **kwargs):
        seen.append(kwargs["max_arity"] if "max_arity" in kwargs else args[-1])
        return VerifyReport(name, True, 1)

    monkeypatch.setattr(f"cliqueops.{module}.{name}", record)
    code, _, _ = run(capsys, "verify", *argv)
    assert (code, seen) == (0, [arity])


def test_readme_lists_every_command():
    import argparse
    import re
    from pathlib import Path

    from cliqueops.cli import build_parser

    cli_section = (Path(__file__).parents[1] / "README.md").read_text().split("## CLI", 1)[1]
    block = cli_section.split("```sh", 1)[1].split("```", 1)[0]
    listed = set(re.findall(r"^cliqueops ([a-z-]+)", block, re.MULTILINE))
    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert listed == set(commands)
    stated = re.search(r"exposes (\w+) commands", cli_section).group(1)
    numbers = "zero one two three four five six seven eight nine ten eleven twelve"
    assert numbers.split().index(stated) == len(commands)


def test_deterministic_output(capsys):
    first = run(capsys, "verify", "symmetries", "--magma", "Z",
                "--max-arity", "3", "--samples", "100", "--seed", "9")
    second = run(capsys, "verify", "symmetries", "--magma", "Z",
                 "--max-arity", "3", "--samples", "100", "--seed", "9")
    assert first == second


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sequence", "--variant", "deg:1"])
    assert exc.value.code == 2


_CLIQUE = {"magma": "Z", "arity": 2, "labels": {"1,3": "1"}}


@pytest.mark.parametrize("payload, argv", [
    (["x"], None),
    ([{"clique": _CLIQUE, "coefficient": "abc"}], None),
    ([{"clique": _CLIQUE}], None),
    ([{"coefficient": "1"}], None),
    ({"magma": "Z", "arity": 2, "labels": 5}, None),
    ([{"clique": 5, "coefficient": "1"}], None),
    ({"magma": "Z", "arity": 2, "labels": {"1,3": 1.5}}, None),
    ({"magma": "Z", "arity": 2, "labels": {"1,3": True}}, None),
    ({"magma": "Z", "arity": 2.5, "labels": {"1,3": "4"}}, None),
    ({"magma": "Z", "arity": True, "labels": {}}, None),
    (None, ["enumerate", "--magma", "D:0", "--arity", "2", "--variant", "deg:x"]),
    (None, ["dyck", "--magma", "D:0", "--decode", "aa[0"]),
    (None, ["magma-check", "--magma", "E:100000"]),
    (None, ["sequence", "--variant", "deg:-1", "--magma", "D:0", "--max-arity", "3"]),
    # a lab: census runs over the dense clique space: 3^21 cliques at arity 6
    (None, ["sequence", "--variant", "lab:1,0;1;1,0", "--magma", "D:1",
            "--max-arity", "6"]),
    (None, ["--threads", "abc", "primes", "--magma", "D:0", "--max-size", "3"]),
    (None, ["--threads", "0", "primes", "--magma", "D:0", "--max-size", "3"]),
    (None, ["--threads", "-3", "sequence", "--variant", "nes", "--magma", "D:0",
            "--max-arity", "3"]),
    (None, ["primes", "--magma", "D:0", "--max-size", "8"]),
    ([{"clique": _CLIQUE, "coefficient": float("inf")}], None),
    ([{"clique": _CLIQUE, "coefficient": float("-inf")}], None),
    ([{"clique": _CLIQUE, "coefficient": True}], None),
    (None, ["verify", "ratfct", "--max-arity", "0"]),
    (None, ["verify", "axioms", "--magma", "D:0", "--max-arity", "0"]),
    (None, ["verify", "known-ops", "--max-arity", "0"]),
    (None, ["verify", "known-ops", "--max-arity", "-3"]),
    (None, ["verify", "ratfct", "--samples", "-1"]),
    (None, ["verify", "symmetries", "--magma", "D:0", "--samples", "0"]),
    (None, ["verify", "axioms", "--magma", "Z"]),
    (None, ["verify", "all", "--magma", "Z", "--max-arity", "3"]),
    # {dir} is a directory and {latin} a file that is not UTF-8
    *((None, ["magma-check", "--magma", f"table:{path}"]) for path in ("{dir}", "{latin}")),
    *((None, ["compose", "--magma", "Z", side, path, other, "{clique}", "--index", "1"])
      for side, other in (("--lhs", "--rhs"), ("--rhs", "--lhs"))
      for path in ("{dir}", "{latin}")),
    *((None, ["dyck", "--magma", "D:0", "--encode", path]) for path in ("{dir}", "{latin}")),
    # coefficients past cli.MAX_COEFFICIENT_DIGITS, refused before they are
    # expanded; a string payload is the file's text, for JSON numbers that a
    # Python float cannot hold
    *((f'[{{"clique": {json.dumps(_CLIQUE)}, "coefficient": {number}}}]', None)
      for number in ("1e5000", "1e30000000", "7" * 5000, "1" + "0" * 1000)),
    ([{"clique": _CLIQUE, "coefficient": "1e4000"}],
     ["compose", "--magma", "Z", "--lhs", "{payload}", "--rhs", "{payload}", "--index", "1"]),
    *(
        (None, ["sequence", "--variant", spec, "--magma", "D:0", "--max-arity", "3",
                "--format", "json"])
        for spec in ("bub:3", "nes:junk", "grav:", "cro:1_0", "deg: 2")
    ),
    *((None, ["sequence", "--variant", "nes", "--magma", "D:0", "--max-arity", bound])
      for bound in ("0", "-2")),
    *((None, ["primes", "--magma", "D:0", "--max-size", bound]) for bound in ("0", "-1")),
    *((None, ["verify", what, "--magma", "D:0", "--max-arity", "3", "--budget", "-1"])
      for what in ("axioms", "all")),
], ids=["not-a-term", "bad-coefficient", "no-coefficient", "no-clique",
        "labels-not-an-object", "clique-not-an-object", "fractional-Z-label",
        "bool-Z-label", "fractional-arity", "bool-arity", "variant-argument",
        "unclosed-color", "oversized-magma", "negative-variant-argument",
        "census-over-budget", "threads-not-an-integer", "threads-zero",
        "threads-negative", "primes-over-budget", "infinite-coefficient",
        "negative-infinite-coefficient", "bool-coefficient", "ratfct-arity-zero",
        "axioms-arity-zero", "known-ops-arity-zero", "known-ops-arity-negative",
        "ratfct-samples-negative", "symmetries-samples-zero", "axioms-over-Z",
        "all-over-Z", "table-directory", "table-not-utf8", "lhs-directory",
        "lhs-not-utf8", "rhs-directory", "rhs-not-utf8", "encode-directory",
        "encode-not-utf8", "decimal-coefficient-1e5000",
        "decimal-coefficient-1e30000000", "5000-digit-coefficient",
        "1001-digit-coefficient", "string-coefficient-1e4000-squared", "bound-on-bub",
        "junk-bound-on-nes", "empty-bound-on-grav", "underscored-bound",
        "spaced-bound", "sequence-arity-zero", "sequence-arity-negative",
        "primes-size-zero", "primes-size-negative", "axioms-budget-negative",
        "all-budget-negative"])
def test_bad_input_exits_two(capsys, tmp_path, payload, argv):
    import time

    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe\x00")
    clique = tmp_path / "clique.json"
    clique.write_text(json.dumps(_CLIQUE))
    lhs = tmp_path / "lhs.json"
    lhs.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    paths = {"{dir}": tmp_path, "{latin}": latin, "{clique}": clique, "{payload}": lhs}
    for key, path in paths.items():
        argv = argv and [arg.replace(key, str(path)) for arg in argv]
    if argv is None:
        argv = ["compose", "--magma", "Z", "--lhs", str(lhs), "--rhs", str(clique),
                "--index", "1"]
    started = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "--magma", "D:0", "--arity", "3000"],
    ["primes", "--magma", "D:0", "--max-size", "3000"],
], ids=["enumerate", "primes"])
def test_huge_spaces_are_refused_before_allocating(capsys, argv):
    # 2^4501500 cliques and 2^4498499 patterns: the refusal counts the arcs
    # and states the size as a power, without building either
    import time
    import tracemalloc

    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: 2^")
    assert elapsed < 1 and peak < 1 << 20


def test_oversized_clique_file_is_refused_before_allocating(capsys, tmp_path):
    import time
    import tracemalloc

    path = tmp_path / "big.json"
    path.write_text(json.dumps({"magma": "D:0", "arity": 3000, "labels": {}}))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "compose", "--magma", "D:0", "--lhs", str(path),
                             "--rhs", str(path), "--index", "1")
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: arity 3000 needs a 4501500-entry label row")
    assert elapsed < 1 and peak < 1 << 20


_ARITY_BOUND = "error: arity {} needs a "  # a label row over MAX_TABLE_ENTRIES
_BLOCK_BUDGET = "error: 2^"  # a block verifier's clique space over the default budget


@pytest.mark.parametrize("argv, refusal", [
    pytest.param(["enumerate", "--magma", "trivial", "--arity", "1448"], _ARITY_BOUND,
                 id="enumerate"),
    pytest.param(["sequence", "--variant", "bub", "--magma", "D:0", "--max-arity", "1448"],
                 _ARITY_BOUND, id="sequence"),
    pytest.param(["verify", "known-ops", "--max-arity", "1448"], _ARITY_BOUND,
                 id="known-ops"),
    pytest.param(["verify", "axioms", "--magma", "D:0", "--max-arity", "3000"], _ARITY_BOUND,
                 id="axioms"),
    pytest.param(["verify", "all", "--max-arity", "3000"], _ARITY_BOUND, id="battery"),
    pytest.param(["verify", "symmetries", "--magma", "D:0", "--max-arity", "7"],
                 _BLOCK_BUDGET, id="symmetries-budget"),
    pytest.param(["verify", "cyclic", "--magma", "D:0", "--max-arity", "7"],
                 _BLOCK_BUDGET, id="cyclic-budget"),
    pytest.param(["verify", "basic", "--magma", "D:0", "--max-arity", "7"],
                 _BLOCK_BUDGET, id="basic-budget"),
    pytest.param(["verify", "ideal", "--magma", "trivial", "--max-arity", "8"],
                 _BLOCK_BUDGET, id="ideal-budget"),
    pytest.param(["verify", "inclusions", "--magma", "trivial", "--max-arity", "8"],
                 _BLOCK_BUDGET, id="inclusions-budget"),
    pytest.param(["verify", "product", "--magma", "prod(trivial,D:0)", "--max-arity", "7"],
                 _BLOCK_BUDGET, id="product-budget"),
    pytest.param(["verify", "known-ops", "--max-arity", "8"], _BLOCK_BUDGET,
                 id="known-ops-budget"),
    pytest.param(["verify", "all", "--magma", "D:0", "--max-arity", "7"], _BLOCK_BUDGET,
                 id="all-budget"),
    # --budget reaches axioms alone, so it does not lift the block refusal
    pytest.param(["verify", "all", "--magma", "D:0", "--max-arity", "7",
                  "--budget", "1000000000"], _BLOCK_BUDGET, id="all-budget-raised"),
])
def test_oversized_arity_flags_are_refused_before_allocating(
    capsys, monkeypatch, argv, refusal,
):
    # the arity bound and the block verifiers' budget are checked before
    # any table is built; the commands' work stands replaced, so that a
    # missed bound fails at once
    import time
    import tracemalloc

    from cliqueops import acceptance, cli, enumeration, knownops, variants, verify

    def ran(*args, **kwargs):
        pytest.fail("the command ran past its bound")

    for module, name in ((cli, "generate_cliques"), (enumeration, "sequence_for"),
                         (knownops, "verify_known_ops"), (verify, "verify_operad_axioms"),
                         (acceptance, "run_all"), (verify, "verify_symmetries"),
                         (verify, "verify_cyclic"), (verify, "verify_basic_set_operad"),
                         (variants, "verify_ideal"), (variants, "verify_inclusions"),
                         (verify, "verify_product_iso")):
        monkeypatch.setattr(module, name, ran)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith(refusal.format(argv[-1]))
    if refusal == _BLOCK_BUDGET:
        # no verify option raises the block budget, so none is advised
        assert "raise it" not in err and "--max-arity" in err
    assert elapsed < 1 and peak < 1 << 20


def test_import_loads_neither_numpy_nor_a_process_pool():
    # a fresh interpreter: this test process has loaded numpy already
    import os
    import subprocess
    import sys

    import cliqueops

    script = (
        "import sys\n"
        "import cliqueops, cliqueops.cli\n"
        "heavy = ('numpy', 'concurrent.futures', 'multiprocessing')\n"
        "loaded = [name for name in heavy if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "report = cliqueops.verify_operad_axioms(cliqueops.parse_magma_spec('D:0'), 3)\n"
        "assert report.ok and report.checked > 0, report\n"
        # --threads is accepted and changes nothing: 2^14 patterns at size 6
        # run in this process, and the output is that of --threads 1
        "import contextlib, io\n"
        "outs = []\n"
        "for threads in ('1', '2'):\n"
        "    cliqueops.enumeration._PRIME_HISTOGRAMS.clear()\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = cliqueops.cli.main(['--threads', threads, 'primes', '--magma',\n"
        "                                   'D:0', '--max-size', '6'])\n"
        "    assert code == 0, code\n"
        "    outs.append(out.getvalue())\n"
        "assert outs[0] == outs[1] and outs[0].count('\\n') == 7, outs\n"
        "loaded = [name for name in heavy[1:] if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(cliqueops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_every_module_imports_first():
    # in one fresh interpreter, each module is imported with every cliqueops
    # module dropped and a bare package in place of __init__.py, so that
    # neither the package's import order nor an earlier import hides a cycle
    import os
    import subprocess
    import sys

    import cliqueops

    script = (
        "import importlib, pkgutil, sys, types\n"
        "path = sys.argv[1:]\n"
        "names = sorted(info.name for info in pkgutil.iter_modules(path))\n"
        "assert 'verify' in names and 'variants' in names, names\n"
        "for name in names:\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'cliqueops']:\n"
        "        del sys.modules[key]\n"
        "    package = types.ModuleType('cliqueops')\n"
        "    package.__path__ = path\n"
        "    sys.modules['cliqueops'] = package\n"
        "    importlib.import_module('cliqueops.' + name)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, os.path.dirname(cliqueops.__file__)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_primes_budget_option(capsys):
    code, _, err = run(capsys, "primes", "--magma", "D:0", "--max-size", "5",
                       "--budget", "100")
    assert code == 2
    assert err.startswith("error: 2^9 diagonal patterns at arity 5")
    code, out, _ = run(capsys, "primes", "--magma", "D:0", "--max-size", "5",
                       "--budget", "512")
    assert code == 0
    assert out.splitlines()[-1] == "5 16448 257 22"


def test_decimal_coefficients_are_exact(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text('[{"coefficient": 0.1, "clique": '
                    '{"magma": "Z", "arity": 1, "labels": {}}}]')
    code, out, _ = run(
        capsys, "compose", "--magma", "Z", "--lhs", str(path), "--rhs", str(path),
        "--index", "1", "--json",
    )
    assert code == 0
    assert [t["coefficient"] for t in json.loads(out)["terms"]] == ["1/100"]


# decimal (0.5, 2.0), fractional ("3/4") and integer coefficients over D:1
_COMPOSE_LHS = [
    {"coefficient": 0.5,
     "clique": {"magma": "D:1", "arity": 3, "labels": {"2,3": "0", "1,4": "d_1"}}},
    {"coefficient": "3/4",
     "clique": {"magma": "D:1", "arity": 3, "labels": {"2,3": "d_1", "2,4": "0"}}},
    {"coefficient": 3, "clique": {"magma": "D:1", "arity": 3, "labels": {"1,3": "0"}}},
]
_COMPOSE_RHS = [
    {"coefficient": 2.0,
     "clique": {"magma": "D:1", "arity": 2, "labels": {"1,3": "0", "1,2": "d_1"}}},
    {"coefficient": -1, "clique": {"magma": "D:1", "arity": 2, "labels": {"2,3": "0"}}},
]
# per option, the text stdout and the --json payload (compact here) of
# `compose --index 2` on the combinations above, recorded when every
# stored coefficient was a Fraction; integral ones print as "3" and "3/1"
_COMPOSE_PINS = {
    ('--basis', 'fundamental'): (
        '-3/4 * <(2,4)=d_1, (2,5)=0, (3,4)=0>\n'
        '3/2 * <(2,3)=d_1, (2,4)=0, (2,5)=0>\n'
        '-1/2 * <(1,5)=d_1, (2,4)=0, (3,4)=0>\n'
        '1 * <(1,5)=d_1, (2,3)=d_1, (2,4)=0>\n'
        '-3 * <(1,4)=0, (3,4)=0>\n'
        '6 * <(1,4)=0, (2,3)=d_1, (2,4)=0>\n'
        ,
        '{"basis": "fundamental", "terms": ['
        '{"clique": {"arity": 4, "labels": {"2,4": "d_1", "2,5": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/4"}, '
        '{"clique": {"arity": 4, "labels": {"2,3": "d_1", "2,4": "0", "2,5": "0"}, "magma": "D:1"}, "coefficient": "3/2"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,4": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-1/2"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,3": "d_1", "2,4": "0"}, "magma": "D:1"}, "coefficient": "1/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "2,3": "d_1", "2,4": "0"}, "magma": "D:1"}, "coefficient": "6/1"}'
        ']}',
    ),
    ('--basis', 'H'): (
        '-3/4 * <(2,5)=0, (3,4)=0>\n'
        '-3/4 * <(2,4)=d_1, (2,5)=0, (3,4)=0>\n'
        '3/2 * <(2,3)=d_1, (2,5)=0>\n'
        '3 * <(2,3)=d_1, (2,4)=0, (2,5)=0>\n'
        '3/2 * <(2,3)=d_1, (2,4)=d_1, (2,5)=0>\n'
        '-1/2 * <(1,5)=d_1, (3,4)=0>\n'
        '-1/2 * <(1,5)=d_1, (2,4)=0, (3,4)=0>\n'
        '1 * <(1,5)=d_1, (2,3)=d_1>\n'
        '3 * <(1,5)=d_1, (2,3)=d_1, (2,4)=0>\n'
        '-3 * <(1,4)=0, (3,4)=0>\n'
        '6 * <(1,4)=0, (2,3)=d_1>\n'
        '6 * <(1,4)=0, (2,3)=d_1, (2,4)=0>\n'
        ,
        '{"basis": "H", "terms": ['
        '{"clique": {"arity": 4, "labels": {"2,5": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/4"}, '
        '{"clique": {"arity": 4, "labels": {"2,4": "d_1", "2,5": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/4"}, '
        '{"clique": {"arity": 4, "labels": {"2,3": "d_1", "2,5": "0"}, "magma": "D:1"}, "coefficient": "3/2"}, '
        '{"clique": {"arity": 4, "labels": {"2,3": "d_1", "2,4": "0", "2,5": "0"}, "magma": "D:1"}, "coefficient": "3/1"}, '
        '{"clique": {"arity": 4, "labels": {"2,3": "d_1", "2,4": "d_1", "2,5": "0"}, "magma": "D:1"}, "coefficient": "3/2"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-1/2"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,4": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-1/2"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,3": "d_1"}, "magma": "D:1"}, "coefficient": "1/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,3": "d_1", "2,4": "0"}, "magma": "D:1"}, "coefficient": "3/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "2,3": "d_1"}, "magma": "D:1"}, "coefficient": "6/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "2,3": "d_1", "2,4": "0"}, "magma": "D:1"}, "coefficient": "6/1"}'
        ']}',
    ),
    ('--basis', 'K'): (
        '-3/4 * <(2,5)=0, (3,4)=0>\n'
        '-3/4 * <(2,4)=d_1, (2,5)=0, (3,4)=0>\n'
        '3/2 * <(2,3)=d_1, (2,5)=0>\n'
        '3/2 * <(2,3)=d_1, (2,4)=0, (2,5)=0>\n'
        '-1/2 * <(1,5)=d_1, (3,4)=0>\n'
        '-1/2 * <(1,5)=d_1, (2,4)=0, (3,4)=0>\n'
        '1 * <(1,5)=d_1, (2,3)=d_1>\n'
        '1 * <(1,5)=d_1, (2,3)=d_1, (2,4)=0>\n'
        '-3 * <(1,4)=0, (3,4)=0>\n'
        '6 * <(1,4)=0, (2,3)=d_1>\n'
        '6 * <(1,4)=0, (2,3)=d_1, (2,4)=0>\n'
        ,
        '{"basis": "K", "terms": ['
        '{"clique": {"arity": 4, "labels": {"2,5": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/4"}, '
        '{"clique": {"arity": 4, "labels": {"2,4": "d_1", "2,5": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/4"}, '
        '{"clique": {"arity": 4, "labels": {"2,3": "d_1", "2,5": "0"}, "magma": "D:1"}, "coefficient": "3/2"}, '
        '{"clique": {"arity": 4, "labels": {"2,3": "d_1", "2,4": "0", "2,5": "0"}, "magma": "D:1"}, "coefficient": "3/2"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-1/2"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,4": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-1/2"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,3": "d_1"}, "magma": "D:1"}, "coefficient": "1/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,3": "d_1", "2,4": "0"}, "magma": "D:1"}, "coefficient": "1/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "2,3": "d_1"}, "magma": "D:1"}, "coefficient": "6/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "2,3": "d_1", "2,4": "0"}, "magma": "D:1"}, "coefficient": "6/1"}'
        ']}',
    ),
    ('--variant', 'deg:2'): (
        '-3/4 * <(2,4)=d_1, (2,5)=0, (3,4)=0>\n'
        '-1/2 * <(1,5)=d_1, (2,4)=0, (3,4)=0>\n'
        '1 * <(1,5)=d_1, (2,3)=d_1, (2,4)=0>\n'
        '-3 * <(1,4)=0, (3,4)=0>\n'
        '6 * <(1,4)=0, (2,3)=d_1, (2,4)=0>\n'
        ,
        '{"basis": "fundamental", "terms": ['
        '{"clique": {"arity": 4, "labels": {"2,4": "d_1", "2,5": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/4"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,4": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-1/2"}, '
        '{"clique": {"arity": 4, "labels": {"1,5": "d_1", "2,3": "d_1", "2,4": "0"}, "magma": "D:1"}, "coefficient": "1/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "3,4": "0"}, "magma": "D:1"}, "coefficient": "-3/1"}, '
        '{"clique": {"arity": 4, "labels": {"1,4": "0", "2,3": "d_1", "2,4": "0"}, "magma": "D:1"}, "coefficient": "6/1"}'
        ']}',
    ),
}


@pytest.mark.parametrize("option", list(_COMPOSE_PINS),
                         ids=["fundamental", "H", "K", "variant-deg:2"])
def test_compose_output_is_pinned(capsys, tmp_path, option):
    text, payload = _COMPOSE_PINS[option]
    lhs, rhs = tmp_path / "lhs.json", tmp_path / "rhs.json"
    lhs.write_text(json.dumps(_COMPOSE_LHS))
    rhs.write_text(json.dumps(_COMPOSE_RHS))
    argv = ["compose", "--magma", "D:1", "--lhs", str(lhs), "--rhs", str(rhs),
            "--index", "2", *option]
    assert run(capsys, *argv) == (0, text, "")
    expected = json.dumps(json.loads(payload), indent=2, sort_keys=True) + "\n"
    assert run(capsys, *argv, "--json") == (0, expected, "")


def test_largest_coefficients_compose_and_print(capsys, tmp_path):
    # the most digits and the largest exponent cli.MAX_COEFFICIENT_DIGITS
    # admits, as a JSON decimal and as a string: their product prints
    from cliqueops.cli import MAX_COEFFICIENT_DIGITS as most

    mantissa = "9" * (most - len(str(most)))
    lhs, rhs = tmp_path / "lhs.json", tmp_path / "rhs.json"
    lhs.write_text(f'[{{"clique": {json.dumps(_CLIQUE)}, "coefficient": {mantissa}e{most}}}]')
    rhs.write_text(json.dumps([{"clique": _CLIQUE, "coefficient": f"{mantissa}e{most}"}]))
    code, out, _ = run(capsys, "compose", "--magma", "Z", "--lhs", str(lhs),
                       "--rhs", str(rhs), "--index", "1", "--json")
    assert code == 0
    assert json.loads(out)["terms"][0]["coefficient"] == (
        f"{int(mantissa) ** 2 * 10 ** (2 * most)}/1"
    )
    rhs.write_text(json.dumps([{"clique": _CLIQUE, "coefficient": f"-{mantissa}e-{most}"}]))
    code, out, _ = run(capsys, "compose", "--magma", "Z", "--lhs", str(lhs),
                       "--rhs", str(rhs), "--index", "1", "--json")
    assert code == 0
    assert json.loads(out)["terms"][0]["coefficient"] == f"-{int(mantissa) ** 2}/1"


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_summed_coefficients_past_the_int_str_limit_print(capsys, tmp_path, fmt):
    # one Z clique four times with coefficients 1/(10^998 + k): each literal
    # is admitted, but the loaded sum and its square have denominators of
    # about 4000 and 8000 digits
    import sys
    from fractions import Fraction

    path = tmp_path / "f.json"
    path.write_text(json.dumps([
        {"clique": _CLIQUE, "coefficient": f"1/{10 ** 998 + k}"} for k in range(4)
    ]))
    code, out, err = run(capsys, "compose", "--magma", "Z", "--lhs", str(path),
                         "--rhs", str(path), "--index", "1", *fmt)
    assert (code, err) == (0, "")
    square = sum(Fraction(1, 10 ** 998 + k) for k in range(4)) ** 2
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # for the reference conversion only
    try:
        want = f"{square.numerator}/{square.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 8000
    if fmt:
        assert [t["coefficient"] for t in json.loads(out)["terms"]] == [want]
    else:
        assert out == f"{want} * <(1,3)=1, (1,4)=1>\n"


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    from cliqueops import cli

    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_magma_check", broken)
    with pytest.raises(KeyError):
        main(["magma-check", "--magma", "D:0"])


def test_one_parser_serves_calls_made_after_a_change(capsys, monkeypatch):
    # the parser of the first call is reused: the command functions are
    # looked up when each call runs, not when the parser was built
    from cliqueops import cli

    assert run(capsys, "magma-check", "--magma", "D:0")[0] == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("a second parser"))
    seen = []
    monkeypatch.setattr(cli, "cmd_primes", lambda args: seen.append(args.threads) or 0)
    primes = ("primes", "--magma", "D:0", "--max-size", "3")
    assert run(capsys, "--threads", "3", *primes)[0] == 0
    assert run(capsys, *primes)[0] == 0
    assert seen == [3, 1]


def test_verify_all_stdout_is_timing_free(capsys, monkeypatch):
    from cliqueops import acceptance

    def passing():
        return "cheap detail"

    def failing():
        raise AssertionError("stated outcome not met")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [(1, passing), (7, failing)])
    first = run(capsys, "verify", "all")
    second = run(capsys, "verify", "all")
    assert first[0] == second[0] == 1
    assert first[1] == second[1] == (
        "criterion  1: PASS: cheap detail\n"
        "criterion  7: FAIL: stated outcome not met\n"
    )
    timings = first[2].splitlines()
    assert [line.split(":")[0] for line in timings] == ["criterion  1", "criterion  7"]
    assert all("elapsed_s=" in line and "headroom_s=" in line for line in timings)
    assert "bound_s=60" in timings[1]


def test_verify_all_json_lists_the_criteria(capsys, monkeypatch):
    from cliqueops import acceptance

    def passing():
        return "cheap detail"

    def failing():
        raise AssertionError("stated outcome not met")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [(1, passing), (7, failing)])
    code, out, err = run(capsys, "verify", "all", "--json")
    assert code == 1
    assert json.loads(out) == [
        {"criterion": 1, "ok": True, "detail": "cheap detail"},
        {"criterion": 7, "ok": False, "detail": "stated outcome not met"},
    ]
    assert run(capsys, "verify", "all", "--json")[1] == out
    timings = err.splitlines()
    assert [line.split(":")[0] for line in timings] == ["criterion  1", "criterion  7"]
    assert all("elapsed_s=" in line for line in timings)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [(1, passing)])
    assert run(capsys, "verify", "all", "--json")[0] == 0


def test_census_walk_over_budget_exits_two_quickly(capsys):
    # cro:0 over D:0 walks 211,044,352 masks at arity 10; the budget
    # refuses the walk at arity 5, its first arity past 1000 masks
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, "sequence", "--variant", "cro:0", "--magma", "D:0",
                         "--max-arity", "10", "--budget", "1000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: the walk passed ")
    assert "at arity 5, over the budget 1000;" in err


def test_census_budget_refusal_outlives_a_kept_histogram(capsys, monkeypatch, d0):
    # a default-budget count keeps the 2880 masks cro:0 accepts at arity 5;
    # under the budget 1000 the walk runs again and refuses as it did cold
    from cliqueops import count_by_enumeration, enumeration

    monkeypatch.setattr(enumeration, "_SKELETON_HISTOGRAMS", {})
    argv = ("sequence", "--variant", "cro:0", "--magma", "D:0", "--max-arity", "10",
            "--budget", "1000")
    cold = run(capsys, *argv)
    assert cold[:2] == (2, "")
    assert count_by_enumeration("cro:0", d0, 5) == 2880
    assert run(capsys, *argv) == cold


# letters, brackets and label names of D:1 (the unit, 0, d_1 and an alias),
# and a name D:1 lacks
WORD_CHARS = ["a", "b", "[", "]", "0", "d_1", "d1", "\U0001d7d9", "x"]


@st.composite
def encoded_words(draw):
    """The word of a nesting-free D:1 clique of arity up to 12, maybe with a
    few tokens spliced in."""
    n = draw(st.integers(min_value=2, max_value=12))
    arcs = draw(st.lists(st.sampled_from(arcs_of(n)), max_size=n, unique=True))
    arcs.sort()
    kept = [arc for k, arc in enumerate(arcs)  # starts and ends increasing
            if all(a[0] < arc[0] and a[1] < arc[1] for a in arcs[:k])]
    labels = draw(st.lists(st.sampled_from([D1.elem("0"), D1.elem("d_1")]),
                           min_size=len(kept), max_size=len(kept)))
    text = str(dyck_encode(Clique.from_arcs(D1, n, dict(zip(kept, labels)))))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from(WORD_CHARS)) + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(WORD_CHARS), max_size=24).map("".join),
    st.lists(st.sampled_from(WORD_CHARS), min_size=25, max_size=200).map("".join),
    encoded_words(),
))
def test_colored_word_parser_decodes_or_refuses(text):
    try:
        word = _parse_colored_word(D1, text)
        clique = dyck_decode(word)
    except (UsageError, CliqueError, MagmaError):
        return
    assert is_nesting_free(clique)
    assert dyck_encode(clique) == word


def unless_clean(clean, good, *bad):
    """`good`, or when not `clean` either `good` or one of the `bad` values."""
    return good if clean else st.one_of(good, st.sampled_from(bad))


@st.composite
def combination_cliques(draw, clean, arity):
    """A D:1 clique object of the arity with labels on some of its arcs;
    unless `clean`, maybe with a bad arity, label or arc key, or with a
    key missing."""
    arity = draw(unless_clean(clean, st.just(arity), 0, -1, True, 2.5, "3", 5))
    # the one arc of arity 1 is the unit's
    arcs = arcs_of(arity) if arity in range(2, 6) else []
    keys = [f"{x},{y}" for x, y in arcs] + ([] if clean else ["9,9", "1;3", "1,2"])
    # the unit, 0 and d_1 by name; an alias, a name D:1 lacks and non-names
    label = unless_clean(clean, st.sampled_from(["\U0001d7d9", "0", "d_1"]),
                         "d1", "x", 3, None)
    data = {"magma": "D:1", "arity": arity, "labels": draw(
        st.dictionaries(st.sampled_from(keys), label, max_size=4)) if keys else {}}
    for missing in draw(unless_clean(clean, st.just(()), ("arity",), ("labels",))):
        del data[missing]
    return data


@st.composite
def combination_files(draw, clean, arity):
    """One clique, or a list of terms: cliques with exact coefficients
    (integers, JSON decimals and fraction strings); unless `clean`, maybe
    with bad terms, coefficients or a key missing, or no term at all."""
    if draw(st.booleans()):
        return draw(combination_cliques(clean, arity))
    coefficient = unless_clean(
        clean, st.one_of(st.integers(-1000, 1000), st.floats(-100, 100), st.just("-3/4")),
        True, float("nan"), float("inf"), float("-inf"), None, [1], "e", "1/0",
    )
    term = st.fixed_dictionaries({
        "clique": combination_cliques(clean, arity), "coefficient": coefficient,
    }).flatmap(lambda term: unless_clean(
        clean, st.just(term), *({k: v for k, v in term.items() if k != key} for key in term),
    ))
    return draw(unless_clean(
        clean, st.lists(unless_clean(clean, term, "x", 5), min_size=1, max_size=3), [],
    ))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_combination_files_compose_or_exit_two(tmp_path_factory, data):
    import contextlib
    import io

    clean = data.draw(st.booleans(), label="clean")
    n, m = data.draw(st.integers(1, 4), label="n"), data.draw(st.integers(1, 4), label="m")
    index = data.draw(unless_clean(clean, st.integers(1, n), 0, n + 1), label="index")
    basis = data.draw(unless_clean(clean, st.just("fundamental"), "H", "K"), label="basis")
    folder = tmp_path_factory.mktemp("combinations")
    paths = []
    for name, arity in (("lhs", n), ("rhs", m)):
        path = folder / f"{name}.json"
        # NaN and infinities are written as JSON's extensions
        path.write_text(json.dumps(data.draw(combination_files(clean, arity), label=name)))
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compose", "--magma", "D:1", "--lhs", paths[0], "--rhs", paths[1],
                     "--index", str(index), "--basis", basis])
    if clean:
        assert (code, err.getvalue()) == (0, "")
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert code == 2 and err.getvalue().startswith("error:")
