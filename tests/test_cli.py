"""Command-line interface: parsing, serialization, exit codes, determinism."""

import json
import random
import time

import pytest

from oracles import parse_ratfunc, prs_make

from carlitzhd import (
    CarlitzCtx,
    ConstraintViolated,
    PeriodCoords,
    Poly,
    TPoly,
    USeries,
    VARS_T,
    VARS_TT,
    field_new,
    pitilde,
    theta_series,
    z_via_omega,
)
from carlitzhd.cli import (
    RunConfig,
    _factor_prime_power,
    _parse_modulus,
    _render_json,
    build_parser,
    main,
    parse_coords,
    parse_poly,
    parse_tpoly,
    parse_useries,
    ser_coords,
    ser_poly,
    ser_ratfunc,
    ser_sjet,
    ser_tpoly,
    ser_useries,
)

SEED = 1729


# -- config parsing ---------------------------------------------------------------

def test_factor_prime_power():
    assert _factor_prime_power(2) == (2, 1)
    assert _factor_prime_power(4) == (2, 2)
    assert _factor_prime_power(9) == (3, 2)
    assert _factor_prime_power(27) == (3, 3)
    for bad in (1, 6, 12, 0):
        with pytest.raises(ConstraintViolated):
            _factor_prime_power(bad)


def test_parse_modulus_low_first_digits():
    assert _parse_modulus("111", 2) == (1, 1, 1)
    assert _parse_modulus("102", 3) == (1, 0, 2)
    with pytest.raises(ConstraintViolated):
        _parse_modulus("1x1", 2)
    with pytest.raises(ConstraintViolated):
        _parse_modulus("131", 3)  # digit 3 out of range for p = 3


def test_runconfig_q_shorthand():
    parser = build_parser()
    args = parser.parse_args(["pitilde", "--q", "4"])
    cfg = RunConfig.from_args(args)
    assert (cfg.p, cfg.e) == (2, 2)
    assert cfg.field() is field_new(2, 2)
    args = parser.parse_args(["pitilde", "--p", "3", "--e", "2"])
    cfg = RunConfig.from_args(args)
    assert cfg.field().q == 9


def test_runconfig_q_and_p_mutually_exclusive():
    parser = build_parser()
    args = parser.parse_args(["pitilde", "--q", "4", "--p", "2"])
    with pytest.raises(ConstraintViolated):
        RunConfig.from_args(args)


def test_runconfig_ctx_and_echo():
    parser = build_parser()
    args = parser.parse_args(["pitilde", "--q", "2", "--uprec", "30"])
    cfg = RunConfig.from_args(args)
    ctx = cfg.ctx(0)
    assert isinstance(ctx, CarlitzCtx) and ctx.uprec == 30
    d = cfg.to_dict()
    assert d["p"] == 2 and d["e"] == 1 and d["uprec"] == 30
    assert isinstance(d["modulus"], str)


# -- serializers --------------------------------------------------------------------

def test_useries_serialization_roundtrip():
    rng = random.Random(SEED)
    for f in (field_new(2), field_new(3), field_new(2, 2)):
        for _ in range(40):
            m = {e: rng.randrange(f.q) for e in range(-5, 9)
                 if rng.random() < 0.5}
            s = USeries.from_coeff_map(
                f, {e: f.from_index(c) for e, c in m.items()})
            if rng.random() < 0.5:
                s = s.with_prec(rng.randrange(9, 20))
            d = json.loads(json.dumps(ser_useries(s)))
            assert parse_useries(f, d) == s


def test_poly_serialization_roundtrip():
    rng = random.Random(SEED)
    f = field_new(3)
    for _ in range(40):
        items = [((rng.randrange(5), rng.randrange(5)),
                  f.from_index(rng.randrange(3))) for _ in range(4)]
        p = Poly.from_items(f, items, VARS_TT)
        d = json.loads(json.dumps(ser_poly(p)))
        assert parse_poly(f, d) == p


def test_ratfunc_serialization_roundtrip():
    f = field_new(2)
    r = prs_make(
        Poly.from_items(f, [((1, 0), 1), ((0, 0), 1)], VARS_TT),
        Poly.from_items(f, [((2, 0), 1), ((0, 1), 1)], VARS_TT))
    d = json.loads(json.dumps(ser_ratfunc(r)))
    assert parse_ratfunc(f, d) == r


def test_tpoly_serialization_roundtrip():
    f = field_new(2)
    t = TPoly(f, {0: USeries.one(f), 2: theta_series(f).with_prec(9)})
    d = json.loads(json.dumps(ser_tpoly(t)))
    assert d["t_prec"] is None
    assert parse_tpoly(f, d) == t


def test_parse_tpoly_refuses_a_truncated_record():
    # a TPoly is an exact polynomial in t; a t-series mod t^n has no record
    f = field_new(2)
    d = ser_tpoly(TPoly.one(f))
    d["t_prec"] = 5
    with pytest.raises(ConstraintViolated, match="t_prec"):
        parse_tpoly(f, d)


def test_coords_serialization_roundtrip():
    f = field_new(2)
    pc = z_via_omega(CarlitzCtx(f, uprec=40, jet_order=1), 2)
    d = json.loads(json.dumps(ser_coords(pc)))
    back = parse_coords(f, d)
    assert back == pc
    assert d["route"] == "omega" and d["n"] == 2 and len(d["z"]) == 2


def test_sjet_serialization_shape():
    from carlitzhd import eta_sjet

    f = field_new(2)
    d = ser_sjet(eta_sjet(f, 2, 3))
    assert d["order"] == 3 and len(d["coeffs"]) == 3


# -- compute subcommands ---------------------------------------------------------------

def test_cli_pitilde_text(capsys):
    assert main(["pitilde", "--q", "2", "--uprec", "20"]) == 0
    out = capsys.readouterr().out
    assert "pitilde over F_2" in out
    assert "u^-2" in out


def test_cli_pitilde_json_envelope(capsys):
    assert main(["pitilde", "--q", "3", "--uprec", "25", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert set(env) == {"version", "config", "results"}
    assert env["config"]["command"] == "pitilde"
    assert env["config"]["q"] == 3
    assert env["config"]["cutoff_used"] >= 1
    (res,) = env["results"]
    assert res["name"] == "pitilde"
    s = parse_useries(field_new(3), res["value"])
    assert s == pitilde(CarlitzCtx(field_new(3), uprec=25))


def test_cli_json_output_is_deterministic(capsys):
    main(["coords", "--q", "2", "--n", "2", "--route", "eta", "--json"])
    first = capsys.readouterr().out
    main(["coords", "--q", "2", "--n", "2", "--route", "eta", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_atpoly_text(capsys):
    assert main(["atpoly", "--q", "3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "alpha_3 = theta^3 + 2*theta" in out
    assert "Gamma_3 = theta^3 + 2*theta" in out


def test_cli_gamma_kinds(capsys):
    assert main(["gamma", "--q", "2", "--kind", "D", "--m", "1"]) == 0
    assert "theta^2 + theta" in capsys.readouterr().out
    assert main(["gamma", "--q", "2", "--kind", "curlyL", "--m", "1", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    got = parse_poly(field_new(2), env["results"][0]["value"])
    assert got == Poly.from_items(
        field_new(2), [((2, 0), 1), ((0, 1), 1)], VARS_TT)


def test_cli_eta_forms(capsys):
    assert main(["eta", "--q", "2", "--l", "2"]) == 0
    capsys.readouterr()
    assert main(["eta", "--q", "2", "--l", "2", "--form", "sjet",
                 "--sjet-order", "3", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["results"][0]["value"]["order"] == 3


def test_cli_bj(capsys):
    assert main(["bj", "--q", "2", "--j", "2", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    got = parse_ratfunc(field_new(2), env["results"][0]["value"])
    f = field_new(2)
    assert got == prs_make(
        Poly.const(f, -1, VARS_TT),
        Poly.monomial(f, (2, 0), vars=VARS_TT) - Poly.monomial(f, (0, 1), vars=VARS_TT))


def test_cli_coords_routes_round_trip(capsys):
    for route in ("omega", "eta", "at"):
        assert main(["coords", "--q", "2", "--n", "3", "--route", route,
                     "--json"]) == 0
        env = json.loads(capsys.readouterr().out)
        pc = parse_coords(field_new(2), env["results"][0]["value"])
        assert pc.n == 3 and pc.route == route


def test_cli_eta_route_depth_past_the_least_is_bounded(capsys):
    # every depth from l_min = 2 on gives the same coordinates mod X^3, and
    # each eta factor doubles the cost: --l 50 runs at l_min + 1 = 3, where
    # it ran all 49 factors and did not end within 20 s
    start = time.perf_counter()
    assert main(["coords", "--q", "2", "--n", "3", "--route", "eta", "--l", "50",
                 "--json"]) == 0
    assert time.perf_counter() - start < 5
    deep = json.loads(capsys.readouterr().out)
    assert main(["coords", "--q", "2", "--n", "3", "--route", "eta", "--l", "3",
                 "--json"]) == 0
    assert deep["results"] == json.loads(capsys.readouterr().out)["results"]


def test_cli_coords_rejects_bad_power(capsys):
    assert main(["coords", "--q", "2", "--n", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_invalid_field_exits_2(capsys):
    assert main(["pitilde", "--q", "6"]) == 2
    assert main(["pitilde", "--q", "2", "--modulus", "11", "--e", "1"]) in (0, 2)


@pytest.mark.parametrize("field", [["--q", "65537"], ["--p", "65537"],
                                   ["--p", "2", "--e", "11"]])
def test_cli_oversize_field_exits_2_at_once(capsys, field):
    start = time.perf_counter()
    assert main(["atpoly", *field, "--n", "3"]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_eta_above_the_bound_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert main(["eta", "--q", "3", "--l", "40"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["pitilde", "--q", "2", "--uprec", "5", "--cutoff", "1000000"],
                                  ["omega", "--q", "2", "--uprec", "5", "--cutoff", "20000"],
                                  ["coords", "--q", "257", "--n", "2", "--cutoff", "9"]])
def test_cli_cutoff_past_64_bits_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    assert main([*argv, "--json"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cutoff ") and captured.err.count("\n") == 1


def test_cli_unwritable_out_exits_2(capsys, tmp_path):
    # a regular file where --out needs a directory
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["pitilde", "--q", "2", "--out", str(blocker / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    # a directory where --out needs a file
    assert main(["pitilde", "--q", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")


def test_cli_precision_exhausted_exits_3(capsys):
    assert main(["pitilde", "--q", "2", "--uprec", "60", "--cutoff", "2"]) == 3
    assert "precision exhausted" in capsys.readouterr().err


def test_cli_usage_error_exits_2(capsys):
    assert main(["pitilde", "--nonsense"]) == 2
    assert main(["atpoly", "--q", "2", "--n", "not_an_int"]) == 2
    capsys.readouterr()


def test_cli_csv_rejected_for_compute(capsys):
    assert main(["pitilde", "--q", "2", "--format", "csv"]) == 2
    assert "csv" in capsys.readouterr().err


# -- verify subcommand ---------------------------------------------------------------

def test_cli_verify_all_green(capsys):
    code = main(["verify", "--q", "2", "--n", "2", "--lmax", "2",
                 "--sum-order", "8", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    env = json.loads(out)
    assert env["all_passed"] is True
    assert env["config"]["command"] == "verify"
    assert len(env["results"]) > 10
    idents = {r["identity"] for r in env["results"]}
    assert "b_transfer" in idents and "coords_cross_route" in idents


def test_cli_verify_all_default_scale(capsys):
    assert main(["verify", "--all", "--q", "2", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "cells passed" in out
    assert "[fail]" not in out


def test_cli_verify_extension_field_modulus(capsys):
    assert main(["verify", "--all", "--q", "4", "--modulus", "111"]) == 0
    out = capsys.readouterr().out
    assert "cells passed" in out
    assert "[fail]" not in out


@pytest.mark.parametrize("args", [
    ["--identity", "eta_quotient", "--lmax", "-1"],
    ["--identity", "omega", "--t-terms", "0"],
    ["--identity", "omega", "--t-terms", "-3"],
    ["--identity", "eta_sum", "--sum-order", "1"],
])
def test_cli_verify_rejects_vacuous_runs(capsys, args):
    # each of these would run no cell, or a cell over an empty range
    assert main(["verify", "--q", "2", "--n", "2", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_cli_verify_single_identity(capsys):
    code = main(["verify", "--q", "2", "--n", "2", "--identity", "alpha",
                 "--json"])
    env = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {r["identity"] for r in env["results"]} <= {
        "alpha_integrality", "alpha_q_power"}


def test_cli_verify_lagrange(capsys):
    code = main(["verify", "--q", "5", "--lagrange", "--trials", "10",
                 "--json"])
    env = json.loads(capsys.readouterr().out)
    assert code == 0
    cells = [r for r in env["results"] if r["identity"] == "lagrange"]
    assert len(cells) == 10
    assert all(c["pass"] for c in cells)


def test_cli_verify_csv(capsys):
    code = main(["verify", "--q", "2", "--n", "1", "--identity", "alpha",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,params,pass,witness"
    assert all(line.count(",") >= 3 for line in lines[1:])


def test_cli_verify_text_summary(capsys):
    code = main(["verify", "--q", "2", "--n", "1", "--identity", "alpha"])
    out = capsys.readouterr().out
    assert code == 0
    assert "alpha_integrality" in out


# -- output files ---------------------------------------------------------------------

def test_cli_out_absolute_path(tmp_path, capsys):
    target = tmp_path / "pit.json"
    assert main(["pitilde", "--q", "2", "--uprec", "20", "--json",
                 "--out", str(target)]) == 0
    env = json.loads(target.read_text())
    assert env["config"]["command"] == "pitilde"
    assert capsys.readouterr().out == ""


def test_cli_out_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CARLITZHD_OUT_DIR", str(tmp_path))
    assert main(["atpoly", "--q", "2", "--n", "2", "--json",
                 "--out", "sub/alpha.json"]) == 0
    env = json.loads((tmp_path / "sub" / "alpha.json").read_text())
    assert env["config"]["command"] == "atpoly"
    capsys.readouterr()



def _stdout_of(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_cli_out_rewrites_a_longer_file_to_exactly_the_new_bytes(tmp_path, capsys):
    target = tmp_path / "out.json"
    long_argv = ["coords", "--q", "3", "--n", "6", "--json"]
    short_argv = ["pitilde", "--q", "2", "--uprec", "8", "--json"]
    assert main(long_argv + ["--out", str(target)]) == 0
    assert target.read_text() == _stdout_of(long_argv, capsys)
    want = _stdout_of(short_argv, capsys)
    assert len(want) < target.stat().st_size
    assert main(short_argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == want.encode()
    assert capsys.readouterr().out == ""


def test_cli_out_writes_through_a_symlink_and_keeps_it(tmp_path, capsys):
    real = tmp_path / "real.txt"
    real.write_text("x" * 5000)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    argv = ["pitilde", "--q", "2", "--uprec", "8"]
    assert main(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and real.read_text() == _stdout_of(argv, capsys)


def test_cli_out_keeps_the_mode_of_an_existing_file(tmp_path, capsys):
    target = tmp_path / "keep.txt"
    target.write_text("old")
    target.chmod(0o640)
    assert main(["pitilde", "--q", "2", "--uprec", "8", "--out", str(target)]) == 0
    assert target.stat().st_mode & 0o777 == 0o640
    assert target.read_text().startswith("pitilde over F_2")
    capsys.readouterr()


def test_cli_out_to_a_device_exits_0(capsys):
    assert main(["pitilde", "--q", "2", "--uprec", "8", "--out", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")


def test_cli_out_through_a_dangling_link_exits_2(tmp_path, capsys):
    link = tmp_path / "dangling"
    link.symlink_to(tmp_path / "missing" / "x.json")
    assert main(["pitilde", "--q", "2", "--out", str(link)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_cli_unexpected_error_exits_2_in_one_line(monkeypatch, capsys):
    from carlitzhd import cli

    def broken(ctx):
        raise RuntimeError("kernel fell over\nsecond line")

    monkeypatch.setattr(cli, "pitilde", broken)
    assert main(["pitilde", "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: RuntimeError: kernel fell over second line\n"


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_cli_interrupt_and_exit_pass_through(exc, monkeypatch):
    from carlitzhd import cli

    def interrupted(ctx):
        raise exc()

    monkeypatch.setattr(cli, "pitilde", interrupted)
    with pytest.raises(exc):
        main(["pitilde", "--q", "2"])


def test_cli_version_flag(capsys):
    from carlitzhd import __version__

    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


# -- one parser per process ----------------------------------------------------------

def test_cli_builds_one_parser_tree_per_process(monkeypatch, capsys):
    import argparse

    from carlitzhd import cli

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser()
    per_tree = len(built)  # the root and one per subcommand
    assert per_tree > 1
    built.clear()
    cli._parser.cache_clear()
    for _ in range(4):
        assert main(["gamma", "--q", "2", "--kind", "D", "--m", "1"]) == 0
        assert main(["pitilde", "--q", "2", "--uprec", "10", "--json"]) == 0
    assert len(built) == per_tree
    capsys.readouterr()


def test_cli_reused_parser_keeps_no_state_between_calls(capsys):
    verify = ["verify", "--q", "2", "--n", "1", "--json", "--identity"]
    assert main(verify + ["omega"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["selectors"] == ["omega"]
    assert main(verify + ["alpha"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["selectors"] == ["alpha"]

    coords = ["coords", "--q", "2", "--n", "2"]
    assert main(coords + ["--json"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(coords) == 0
    assert capsys.readouterr().out.startswith("coordinates over F_2, n=2")


# -- the JSON renderer ---------------------------------------------------------------

def _oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["pitilde", "--q", "3", "--uprec", "25"],
    ["pitilde", "--q", "9", "--uprec", "20"],
    ["omega", "--q", "2", "--uprec", "20"],
    ["atpoly", "--q", "3", "--n", "4"],
    ["gamma", "--q", "4", "--kind", "curlyL", "--m", "2"],
    ["eta", "--q", "2", "--l", "2"],
    ["eta", "--q", "3", "--l", "2", "--form", "sjet", "--sjet-order", "4"],
    ["bj", "--q", "2", "--j", "3"],
    ["coords", "--q", "4", "--n", "3", "--route", "omega"],
    ["coords", "--q", "3", "--n", "3", "--route", "eta"],
    ["coords", "--q", "2", "--n", "3", "--route", "at"],
    ["verify", "--q", "2", "--n", "1", "--identity", "alpha"],
    ["verify", "--q", "3", "--lagrange", "--trials", "3"],
])
def test_render_json_matches_json_dumps_on_every_subcommand(argv, capsys, monkeypatch):
    from carlitzhd import cli

    seen = []
    render = cli._render_json

    def checked(envelope):
        seen.append(envelope)
        text = render(envelope)
        assert text == _oracle(envelope)
        return text

    monkeypatch.setattr(cli, "_render_json", checked)
    assert main(argv + ["--json"]) == 0
    assert len(seen) == 1
    assert capsys.readouterr().out == _oracle(seen[0])


def test_render_json_keeps_json_types_apart():
    # ints, bools and floats compare equal, so memoized int lists must
    # never stand in for a list of another type
    tree = {"a": [[1, 0], [True, False], [1.0, 0.0], [1, 0], [], [1]],
            "b": [[0, 1], (0, 1), [0, 1.5]], "c": [1, True, 1.0, None, "1"],
            "e": [[0, 1], (1, 0), [0, 1], [2 ** 70]], "f": [[0, 1], [[0, 1]]],
            "é\n": {"": [{}, [], [[]], [[], [2]]]}, "d": (3, 4)}
    assert _render_json(tree) == _oracle(tree)
    for scalar in (0, -7, 2 ** 70, 1.5, float("inf"), float("nan"), None, True,
                   "☃\"\\"):
        assert _render_json(scalar) == _oracle(scalar)
    with pytest.raises(TypeError):
        _render_json({1: 2})


def test_render_json_matches_json_dumps_on_random_trees():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=6))
    digit_vectors = st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=6)
    trees = st.recursive(
        scalars | digit_vectors,
        lambda kids: st.lists(kids, max_size=5)
        | st.dictionaries(st.text(max_size=6), kids, max_size=5),
        max_leaves=30)

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(trees)
    def check(tree):
        assert _render_json(tree) == _oracle(tree)

    check()


# -- serializer round trips on random values ------------------------------------------

def test_serializer_round_trips_on_random_values():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = [field_new(2), field_new(3), field_new(2, 2), field_new(3, 2)]

    def through_text(d):
        return json.loads(_render_json(d))

    def useries(draw, f):
        coeffs = draw(st.dictionaries(st.integers(-6, 12), st.integers(0, f.q - 1),
                                      max_size=8))
        s = USeries.from_coeff_map(f, {e: f.from_index(c) for e, c in coeffs.items()})
        prec = draw(st.none() | st.integers(-6, 14))
        return s if prec is None else s.with_prec(prec)

    def poly(draw, f, vars):
        items = draw(st.lists(st.tuples(
            st.tuples(*[st.integers(0, 5)] * len(vars)), st.integers(0, f.q - 1)),
            max_size=5))
        return Poly.from_items(f, [(e, f.from_index(c)) for e, c in items], vars)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        draw = data.draw
        f = draw(st.sampled_from(fields))
        s = useries(draw, f)
        assert parse_useries(f, through_text(ser_useries(s))) == s
        vars = draw(st.sampled_from([VARS_T, VARS_TT]))
        num, den = poly(draw, f, vars), poly(draw, f, vars)
        assert parse_poly(f, through_text(ser_poly(num))) == num
        if not den.is_zero():
            r = prs_make(num, den)
            assert parse_ratfunc(f, through_text(ser_ratfunc(r))) == r
        t = TPoly(f, {k: useries(draw, f) for k in range(draw(st.integers(0, 4)))})
        assert parse_tpoly(f, through_text(ser_tpoly(t))) == t
        n = draw(st.integers(1, 3))
        route = draw(st.sampled_from(["omega", "eta", "at"]))
        pc = PeriodCoords(n, tuple(useries(draw, f) for _ in range(n)), route)
        assert parse_coords(f, through_text(ser_coords(pc))) == pc

    check()
