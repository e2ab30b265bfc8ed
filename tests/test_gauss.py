import pytest

from bilbiq import (
    Crossing,
    ParseError,
    SignMismatch,
    UnknownLink,
    UnmatchedCrossing,
    builtin_link,
    crossing_relations,
    parse_gauss,
    print_gauss,
)


class TestParseGauss:
    def test_unknot(self):
        d = parse_gauss("")
        assert d.n_semiarcs == 1
        assert d.crossings == {}

    def test_kink(self):
        d = parse_gauss("O1+U1+")
        assert d.n_semiarcs == 2
        # O at token 0 (in arc 1, out 0), U at token 1 (in 0, out 1)
        assert d.crossings == {1: Crossing(1, 0, 1, 1, 0)}

    def test_trefoil(self):
        d = parse_gauss("O1+U2+O3+U1+O2+U3+")
        assert d.n_semiarcs == 6
        assert len(d.crossings) == 3
        # crossing 1: over at token 0 (in arc 5, out 0), under at token 3
        assert d.crossings[1] == Crossing(1, 2, 3, 5, 0)

    def test_two_components(self):
        d = parse_gauss("O1+U2+;O2+U1+")
        assert d.n_semiarcs == 4
        assert len(d.components) == 2
        assert d.crossings[1].over_in == 1
        assert d.crossings[1].under_in == 2

    def test_split_unknot_component(self):
        d = parse_gauss("O1+U1+;")
        assert d.n_semiarcs == 3

    def test_whitespace_ignored(self):
        assert parse_gauss("O1+ U2+\tO3+U1+ O2+U3+") == parse_gauss(
            "O1+U2+O3+U1+O2+U3+"
        )

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_gauss("O1+X2+")

    def test_missing_sign(self):
        with pytest.raises(ParseError):
            parse_gauss("O1U1")

    def test_unmatched_crossing(self):
        with pytest.raises(UnmatchedCrossing):
            parse_gauss("O1+U2+O2+")

    def test_sign_mismatch(self):
        with pytest.raises(SignMismatch):
            parse_gauss("O1+U1-")

    def test_duplicate_passage(self):
        with pytest.raises(ParseError):
            parse_gauss("O1+O1+U1+")

    @pytest.mark.parametrize(
        "code, error, message",
        [
            ("O1+X2+", ParseError, "bad token at 'X2+'"),
            ("O1U1", ParseError, "bad token at 'O1U1'"),
            (" O1+ U2+\tx", ParseError, "bad token at 'x'"),
            # Whitespace may stand between tokens only, not inside one.
            ("O1 2+U12+", ParseError, "bad token at 'O1 2+U12+'"),
            ("O 1+U1 +", ParseError, "bad token at 'O 1+U1 +'"),
            ("O1+O1+U1+", ParseError, "crossing 1 has two O passages"),
            ("O1+U2+O2+", UnmatchedCrossing, "crossing 1 lacks an O or U passage"),
            ("O1+U1-", SignMismatch, "crossing 1 has mismatched signs"),
        ],
    )
    def test_error_messages(self, code, error, message):
        with pytest.raises(error) as info:
            parse_gauss(code)
        assert type(info.value) is error
        assert str(info.value) == message


class TestPrintGauss:
    @pytest.mark.parametrize(
        "code",
        ["", "O1+U1+", "O1+U2+O3+U1+O2+U3+", "O1+U2+;O2+U1+", "O1-U2-O3-U1-O2-U3-"],
    )
    def test_round_trip(self, code):
        assert print_gauss(parse_gauss(code)) == code


class TestCrossingRelations:
    def test_positive_kink(self):
        rels = crossing_relations(parse_gauss("O1+U1+"))
        assert [(r.output, r.x, r.y, r.op) for r in rels] == [
            (1, 0, 1, "up"),
            (0, 1, 0, "low"),
        ]

    def test_negative_kink_uses_bars(self):
        rels = crossing_relations(parse_gauss("O1-U1-"))
        assert {r.op for r in rels} == {"upbar", "lowbar"}

    def test_two_relations_per_crossing(self):
        assert len(crossing_relations(builtin_link("figure8"))) == 8


class TestBuiltinLinks:
    def test_names(self):
        for name, crossings in [
            ("unknot", 0),
            ("trefoil", 3),
            ("trefoil_mirror", 3),
            ("hopf_pos", 2),
            ("figure8", 4),
        ]:
            assert len(builtin_link(name).crossings) == crossings

    def test_unknown(self):
        with pytest.raises(UnknownLink):
            builtin_link("borromean")
