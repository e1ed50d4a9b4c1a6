import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmzv import cli, evaluate
from schurmzv.checkerboard import StairKind, stair_tableau
from schurmzv.errors import ParseError
from schurmzv.shapes import as_diagonal, make_skew

from test_ribbons import connected_skew_shapes


def run(tmp_path, capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def run_json(tmp_path, capsys, *argv):
    rc, out = run(tmp_path, capsys, *argv)
    return rc, json.loads(out)


def grid(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SQUARE = "3 1 3\n1 3 1\n3 1 3\n"
STAIR_SHAPE = ". x x\nx x\nx\n"
HOOK_111 = "1 1\n1\n"


class TestParseGrid:
    def test_skew_tableau(self):
        shape, entries = cli.parse_grid(". 1 3\n1 3")
        assert (shape.lam, shape.mu) == ((3, 2), (1,))
        assert entries == {(1, 2): 1, (1, 3): 3, (2, 1): 1, (2, 2): 3}

    def test_matches_the_four_cell_stair(self):
        shape, entries = cli.parse_grid(". 1 3\n1 3")
        stair = stair_tableau(StairKind("SStar", 1, 3, 2))
        assert shape == stair.shape
        diag = as_diagonal(cli_tableau(shape, entries))
        assert dict(diag.by_content) == dict(stair.by_content)

    def test_square(self):
        shape, entries = cli.parse_grid(SQUARE)
        assert shape == make_skew((3, 3, 3))
        assert entries[(2, 2)] == 3

    def test_shape_only(self):
        for text in ("x x\nx", "+-5 --3\n²"):
            shape, entries = cli.parse_grid(text)
            assert shape == make_skew((2, 1))
            assert entries is None

    def test_invalid_mu_rejected(self):
        with pytest.raises(ParseError):
            cli.parse_grid("1 3\n3 1\n. 2")

    def test_hole_right_of_cell_rejected(self):
        with pytest.raises(ParseError):
            cli.parse_grid("1 . 3\n1")

    def test_mixed_tokens_rejected(self):
        for text in ("1 x\n1", "+-5 1\n1", "1 --3\n1", "1 1\n²"):
            with pytest.raises(ParseError):
                cli.parse_grid(text)

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(ParseError):
            cli.parse_grid("0 1\n1")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            cli.parse_grid("\n\n")

    def test_round_trip_fixed(self):
        for text in (SQUARE, ". 1 3\n1 3\n", "2\n1\n"):
            shape, entries = cli.parse_grid(text)
            again_shape, again_entries = cli.parse_grid(
                cli.render_grid(shape, entries)
            )
            assert again_shape == shape
            assert again_entries == entries

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_random(self, data):
        shape = data.draw(connected_skew_shapes(max_cells=8))
        entries = {
            cell: data.draw(st.integers(min_value=1, max_value=5))
            for cell in shape.cells
        }
        again_shape, again_entries = cli.parse_grid(cli.render_grid(shape, entries))
        assert again_shape == shape
        assert again_entries == entries
        shape_only, none_entries = cli.parse_grid(cli.render_grid(shape))
        assert shape_only == shape
        assert none_entries is None


def cli_tableau(shape, entries):
    from schurmzv.shapes import tableau_from_entries

    return tableau_from_entries(shape, entries)


class TestEval:
    def test_hook_golden(self, tmp_path, capsys):
        path = grid(tmp_path, "hook.tab", HOOK_111)
        rc, doc = run_json(tmp_path, capsys, "eval", "-M", "3", path)
        assert rc == 0
        assert doc["command"] == "eval"
        assert doc["result"]["value"] == "3/4"

    def test_m1_vanishes(self, tmp_path, capsys):
        path = grid(tmp_path, "sq.tab", SQUARE)
        rc, doc = run_json(tmp_path, capsys, "eval", "-M", "1", path)
        assert rc == 0
        assert doc["result"]["value"] == "0"

    @pytest.mark.parametrize("m", ["0", "-5"])
    def test_m_below_one_rejected(self, tmp_path, capsys, m):
        path = grid(tmp_path, "sq.tab", SQUARE)
        rc, doc = run_json(tmp_path, capsys, "eval", "-M", m, path)
        assert rc == 2
        assert doc["error"]["type"] == "ParseError"

    def test_extrapolate_uses_ladder(self, tmp_path, capsys):
        path = grid(tmp_path, "hook.tab", HOOK_111)
        rc, doc = run_json(
            tmp_path, capsys,
            "eval", "-M", "4", "--extrapolate", "--ladder", "256,512", path,
        )
        assert rc == 0
        assert doc["result"]["ladder"] == [256, 512]
        assert "extrapolated_numeric" in doc["result"]

    @pytest.mark.parametrize("ladder", ["16,8", "1,8", "8,8", "8,x", ""])
    def test_bad_ladder_refused_before_reading(self, capsys, ladder):
        rc, doc = run_json(
            None, capsys, "eval", "-M", "3", "--extrapolate", f"--ladder={ladder}", "absent.tab"
        )
        assert rc == 2
        assert doc["error"]["type"] == "ParseError"
        assert "ladder" in doc["error"]["message"]

    def test_cap_exceeded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evaluate, "FILLING_CAP", 10)
        path = grid(tmp_path, "sq.tab", SQUARE)
        rc, doc = run_json(tmp_path, capsys, "eval", "-M", "9", path)
        assert rc == 4
        assert doc["error"]["type"] == "ResourceLimitError"
        assert "more than 10 fillings" in doc["error"]["message"]

    def test_bad_grid(self, tmp_path, capsys):
        path = grid(tmp_path, "bad.tab", "1 3\n3 1\n. 2\n")
        rc, doc = run_json(tmp_path, capsys, "eval", "-M", "3", path)
        assert rc == 2
        assert doc["error"]["type"] == "ParseError"

    def test_shape_only_file_rejected(self, tmp_path, capsys):
        path = grid(tmp_path, "shape.tab", "x x\nx\n")
        rc, doc = run_json(tmp_path, capsys, "eval", "-M", "3", path)
        assert rc == 2


class TestExpand:
    def test_hook_combination(self, tmp_path, capsys):
        path = grid(tmp_path, "hook.tab", HOOK_111)
        rc, doc = run_json(tmp_path, capsys, "expand", path)
        assert rc == 0
        terms = {
            tuple(t["index"]): t["multiplicity"] for t in doc["result"]["terms"]
        }
        assert terms == {(1, 1, 1): 2, (1, 2): 1, (2, 1): 1}


class TestRegularize:
    def test_single_one_cell(self, tmp_path, capsys):
        path = grid(tmp_path, "one.tab", "1\n")
        rc, doc = run_json(tmp_path, capsys, "regularize", path)
        assert rc == 0
        assert doc["result"]["degree"] == 1
        assert doc["result"]["coefficients"][0] == []
        assert doc["result"]["coefficients"][1] == [
            {"index": [], "coefficient": "1"}
        ]

    def test_admissible_is_constant(self, tmp_path, capsys):
        path = grid(tmp_path, "b1.tab", "1 3\n3\n")
        rc, doc = run_json(tmp_path, capsys, "regularize", path)
        assert rc == 0
        assert doc["result"]["degree"] == 0


class TestDecompose:
    def test_column_cut_of_the_square(self, tmp_path, capsys):
        host = grid(tmp_path, "host.shape", "x x\nx x\n")
        ribbon = grid(tmp_path, "guide.shape", ". x\n. x\n. x\n")
        rc, doc = run_json(tmp_path, capsys, "decompose", "--ribbon", ribbon, host)
        assert rc == 0
        assert doc["result"]["n_pieces"] == 2
        assert doc["result"]["grid"] == ["1 2", "1 2"]
        assert doc["result"]["table"] == [
            ["[-1,0]", "[-1,1]"],
            ["[0,0]", "[0,1]"],
        ]

    def test_ribbon_reanchoring(self, tmp_path, capsys):
        # Same guide drawn at the wrong offset: a plain column file has
        # contents 0..-2 and must be shifted onto the host's -1..1.
        host = grid(tmp_path, "host.shape", "x x\nx x\n")
        ribbon = grid(tmp_path, "guide.shape", "x\nx\nx\n")
        rc, doc = run_json(tmp_path, capsys, "decompose", "--ribbon", ribbon, host)
        assert rc == 0
        assert doc["result"]["n_pieces"] == 2
        assert doc["diagnostics"]["ribbon_shift"] == 1


class TestJTCheck:
    def test_exact_square(self, tmp_path, capsys):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        ribbon = grid(tmp_path, "stair.shape", STAIR_SHAPE)
        rc, doc = run_json(
            tmp_path, capsys, "jt-check", "-M", "6", "--ribbon", ribbon, tab
        )
        assert rc == 0
        assert doc["result"]["equal"] is True
        assert doc["result"]["lhs"] == doc["result"]["rhs"]
        assert doc["result"]["n"] == 3

    def test_missing_m(self, tmp_path, capsys):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        ribbon = grid(tmp_path, "stair.shape", STAIR_SHAPE)
        rc, doc = run_json(tmp_path, capsys, "jt-check", "--ribbon", ribbon, tab)
        assert rc == 2

    @pytest.mark.parametrize("m", ["0", "-5"])
    def test_m_below_one_rejected(self, tmp_path, capsys, m):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        ribbon = grid(tmp_path, "stair.shape", STAIR_SHAPE)
        rc, doc = run_json(
            tmp_path, capsys, "jt-check", "-M", m, "--ribbon", ribbon, tab
        )
        assert rc == 2
        assert doc["error"]["type"] == "ParseError"

    def test_cap_exceeded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evaluate, "FILLING_CAP", 10)
        tab = grid(tmp_path, "sq.tab", SQUARE)
        ribbon = grid(tmp_path, "stair.shape", STAIR_SHAPE)
        rc, doc = run_json(
            tmp_path, capsys, "jt-check", "-M", "9", "--ribbon", ribbon, tab
        )
        assert rc == 4
        assert doc["error"]["type"] == "ResourceLimitError"
        assert "more than 10 fillings" in doc["error"]["message"]

    def test_regularized_square(self, tmp_path, capsys):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        ribbon = grid(tmp_path, "stair.shape", STAIR_SHAPE)
        rc, doc = run_json(
            tmp_path, capsys,
            "jt-check", "--regularized", "--T", "0,1", "--ribbon", ribbon, tab,
        )
        assert rc == 0
        result = doc["result"]
        assert result["admissible"] is True
        assert result["within_tolerance"] is True
        assert result["max_discrepancy"] <= 1e-4
        assert result["det_t_spread"] <= 1e-6

    def test_non_diagonal_tableau(self, tmp_path, capsys):
        # (1,1) and (2,2) share content 0 but carry 1 and 2.
        tab = grid(tmp_path, "nd.tab", "1 1\n3 2\n")
        ribbon = grid(tmp_path, "r.shape", ". x\n. x\n. x\n")
        rc, doc = run_json(
            tmp_path, capsys, "jt-check", "-M", "4", "--ribbon", ribbon, tab
        )
        assert rc == 3
        assert doc["error"]["type"] == "PreconditionError"


class TestCheckerboard:
    def test_eval_square(self, tmp_path, capsys):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        rc, doc = run_json(tmp_path, capsys, "checkerboard", "eval", tab)
        assert rc == 0
        result = doc["result"]
        assert result["admissible"] is True
        assert result["tessellated"] is None
        assert result["prefactor"] == "1/32"
        assert result["display_matrix"] == [
            ["z3", "1/180*pi^4", "z7"],
            ["1/72*pi^4", "z5", "17/90720*pi^8"],
            ["z7", "13/226800*pi^8", "z11"],
        ]
        assert result["weight"] == 19

    def test_abs_sum_shows_cancellation(self, tmp_path, capsys):
        # On the 6x6 square the closed form's float terms cancel below the
        # rounding of their sum; the diagnostic bounds that rounding.
        text = "".join(
            " ".join("3" if (j - i) % 2 == 0 else "1" for j in range(6)) + "\n"
            for i in range(6)
        )
        rc, doc = run_json(tmp_path, capsys, "checkerboard", "eval", grid(tmp_path, "sq6.tab", text))
        assert rc == 0
        abs_sum = doc["diagnostics"]["value_numeric_abs_sum"]
        n_terms = len(doc["result"]["symbolic"])
        assert abs_sum * n_terms * 2**-53 > abs(doc["result"]["value_numeric"])

    def test_eval_rejects_non_checkerboard(self, tmp_path, capsys):
        tab = grid(tmp_path, "nd.tab", "1 1\n3\n")
        rc, doc = run_json(tmp_path, capsys, "checkerboard", "eval", tab)
        assert rc == 3

    def test_alpha_single(self, tmp_path, capsys):
        rc, doc = run_json(tmp_path, capsys, "checkerboard", "alpha", "--n", "2")
        assert rc == 0
        assert doc["result"]["alphas"] == [{"n": 2, "alpha": "1074502"}]

    def test_alpha_range(self, tmp_path, capsys):
        rc, doc = run_json(tmp_path, capsys, "checkerboard", "alpha", "--n", "1..3")
        assert rc == 0
        alphas = doc["result"]["alphas"]
        assert [row["n"] for row in alphas] == [1, 2, 3]
        assert alphas[0]["alpha"] == "70"
        assert alphas[2]["alpha"] == "9656199193420/21"

    def test_alpha_bad_range(self, tmp_path, capsys):
        for bad in ("0", "3..1", "x"):
            rc, doc = run_json(
                tmp_path, capsys, "checkerboard", "alpha", "--n", bad
            )
            assert rc == 2

    def test_tessellate_stair_shape(self, tmp_path, capsys):
        shape = grid(tmp_path, "stair.shape", STAIR_SHAPE)
        rc, doc = run_json(
            tmp_path, capsys, "checkerboard", "tessellate", "--kind", "B", shape
        )
        assert rc == 0
        assert doc["result"]["tessellates"] is True
        good = [a for a in doc["result"]["attempts"] if a["tessellates"]]
        assert good[0]["even_content_value"] == 3
        assert good[0]["pieces"] == [{"kind": "B", "a": 1, "b": 3, "n": 2}]

    def test_tessellate_square_fails_for_a(self, tmp_path, capsys):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        rc, doc = run_json(
            tmp_path, capsys, "checkerboard", "tessellate", "--kind", "A", tab
        )
        assert rc == 0
        assert doc["result"]["tessellates"] is False
        assert len(doc["result"]["attempts"]) == 1
        assert doc["result"]["attempts"][0]["even_content_value"] is None


class TestMzv:
    def test_value(self, tmp_path, capsys):
        rc, doc = run_json(
            tmp_path, capsys, "mzv", "--index", "1,3"
        )
        assert rc == 0
        assert doc["result"]["value_numeric"] == pytest.approx(
            math.pi**4 / 360, abs=1e-7
        )

    def test_non_admissible(self, tmp_path, capsys):
        rc, doc = run_json(tmp_path, capsys, "mzv", "--index", "1,1")
        assert rc == 3


class TestPlumbing:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        argv = ["checkerboard", "eval", tab]
        rc1, out1 = run(tmp_path, capsys, *argv)
        rc2, out2 = run(tmp_path, capsys, *argv)
        assert (rc1, out1) == (rc2, out2)

    def test_pretty_is_not_json(self, tmp_path, capsys):
        path = grid(tmp_path, "hook.tab", HOOK_111)
        rc, out = run(tmp_path, capsys, "eval", "-M", "3", "--pretty", path)
        assert rc == 0
        assert not out.lstrip().startswith("{")
        assert "3/4" in out

    def test_missing_file(self, tmp_path, capsys):
        rc, doc = run_json(
            tmp_path, capsys, "eval", "-M", "3", str(tmp_path / "absent.tab")
        )
        assert rc == 2

    def test_settings_only_where_read(self, capsys):
        """Each subcommand takes exactly the settings it reads; any other
        setting flag, and the retired --tol, --config and --cap on every
        subcommand, is an argparse usage error (exit 2)."""
        commands = {
            ("eval", "-M", "3", "f"): {"ladder"},
            ("expand", "f"): set(),
            ("regularize", "f"): set(),
            ("decompose", "--ribbon", "r", "f"): set(),
            ("jt-check", "--ribbon", "r", "f"): set(),
            ("mzv", "--index", "2"): set(),
            ("checkerboard", "eval", "f"): set(),
            ("checkerboard", "alpha", "--n", "1"): set(),
            ("checkerboard", "tessellate", "--kind", "A", "f"): set(),
        }
        flags = {"config": "c", "tol": "1e-6", "cap": "5", "ladder": "8,16"}
        accepted = 0
        for argv, knobs in commands.items():
            for knob, value in flags.items():
                full = [*argv, f"--{knob}", value]
                if knob in knobs:
                    assert getattr(cli.build_parser().parse_args(full), knob) is not None
                    accepted += 1
                else:
                    with pytest.raises(SystemExit) as exc:
                        cli.main(full)
                    assert exc.value.code == 2
                    assert "unrecognized arguments" in capsys.readouterr().err
        assert accepted == 1

        # Within a command, a flag that the chosen mode never reads is
        # refused before any file is opened, naming the flag as typed.
        unread = {
            ("eval", "-M", "3", "--ladder", "8,16", "f"): "--ladder",
            ("jt-check", "--regularized", "-M", "3", "--ribbon", "r", "f"): "-M",
            ("jt-check", "-M", "3", "--T", "0,1", "--ribbon", "r", "f"): "--T",
            ("jt-check", "-M", "3", "--check-tol", "1e-3", "--ribbon", "r", "f"):
                "--check-tol",
        }
        for argv, flag in unread.items():
            rc, doc = run_json(None, capsys, *argv)
            assert rc == 2
            assert doc["error"]["type"] == "ParseError"
            assert f"reads {flag} only" in doc["error"]["message"]
        read = [
            ("eval", "-M", "3", "--extrapolate", "--ladder", "8,16", "f"),
            ("jt-check", "--regularized", "--T", "0,1", "--check-tol", "1e-3",
             "--ribbon", "r", "f"),
            ("jt-check", "-M", "3", "--ribbon", "r", "f"),
        ]
        for argv in read:
            cli.check_flags(cli.build_parser().parse_args(argv))


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestNonFiniteNumbers:
    """nan and infinities are refused at the boundary, with strict JSON out."""

    def refused(self, tmp_path, capsys, *argv):
        rc, out = run(tmp_path, capsys, *argv)
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert rc == 2
        assert doc["error"]["type"] == "ParseError"
        assert "finite" in doc["error"]["message"]
        return doc

    def test_check_tol(self, tmp_path, capsys):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        ribbon = grid(tmp_path, "stair.shape", STAIR_SHAPE)
        self.refused(
            tmp_path, capsys,
            "jt-check", "--regularized", "--check-tol", "nan", "--ribbon", ribbon, tab,
        )

    def test_negative_check_tol(self, tmp_path, capsys):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        ribbon = grid(tmp_path, "stair.shape", STAIR_SHAPE)
        rc, doc = run_json(
            tmp_path, capsys,
            "jt-check", "--regularized", "--check-tol", "-1", "--ribbon", ribbon, tab,
        )
        assert rc == 2
        assert doc["error"]["type"] == "ParseError"
        assert "--check-tol must not be negative" in doc["error"]["message"]
        assert doc["input"]["check_tol"] == -1

    @pytest.mark.parametrize("samples", ["nan,1", "0,inf", "-inf"])
    def test_regularized_t_samples(self, tmp_path, capsys, samples):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        ribbon = grid(tmp_path, "stair.shape", STAIR_SHAPE)
        self.refused(
            tmp_path, capsys,
            "jt-check", "--regularized", f"--T={samples}", "--ribbon", ribbon, tab,
        )

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_checkerboard_t(self, tmp_path, capsys, t):
        tab = grid(tmp_path, "sq.tab", SQUARE)
        doc = self.refused(tmp_path, capsys, "checkerboard", "eval", f"--T={t}", tab)
        assert doc["input"]["T"] == t
