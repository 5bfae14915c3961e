"""Three-valued logic: the Figure 2 truth tables and Figure 3 operators."""

import pytest

from repro.sqltypes.truth import (
    FALSE,
    TRUE,
    UNKNOWN,
    Truth,
    ceil_interpret,
    floor_interpret,
    from_bool,
    truth_all,
    truth_and,
    truth_any,
    truth_not,
    truth_or,
)
from repro.sqltypes.values import NULL, null_equal, null_equal_rows

# Figure 2, verbatim: rows/columns ordered TRUE, UNKNOWN, FALSE.
AND_TABLE = {
    (TRUE, TRUE): TRUE, (TRUE, UNKNOWN): UNKNOWN, (TRUE, FALSE): FALSE,
    (UNKNOWN, TRUE): UNKNOWN, (UNKNOWN, UNKNOWN): UNKNOWN, (UNKNOWN, FALSE): FALSE,
    (FALSE, TRUE): FALSE, (FALSE, UNKNOWN): FALSE, (FALSE, FALSE): FALSE,
}
OR_TABLE = {
    (TRUE, TRUE): TRUE, (TRUE, UNKNOWN): TRUE, (TRUE, FALSE): TRUE,
    (UNKNOWN, TRUE): TRUE, (UNKNOWN, UNKNOWN): UNKNOWN, (UNKNOWN, FALSE): UNKNOWN,
    (FALSE, TRUE): TRUE, (FALSE, UNKNOWN): UNKNOWN, (FALSE, FALSE): FALSE,
}


class TestFigure2TruthTables:
    @pytest.mark.parametrize("left,right", list(AND_TABLE))
    def test_and_matches_figure2(self, left, right):
        assert truth_and(left, right) is AND_TABLE[(left, right)]

    @pytest.mark.parametrize("left,right", list(OR_TABLE))
    def test_or_matches_figure2(self, left, right):
        assert truth_or(left, right) is OR_TABLE[(left, right)]

    @pytest.mark.parametrize("value", [TRUE, FALSE, UNKNOWN])
    def test_and_commutes(self, value):
        for other in (TRUE, FALSE, UNKNOWN):
            assert truth_and(value, other) is truth_and(other, value)

    @pytest.mark.parametrize("value", [TRUE, FALSE, UNKNOWN])
    def test_or_commutes(self, value):
        for other in (TRUE, FALSE, UNKNOWN):
            assert truth_or(value, other) is truth_or(other, value)

    def test_not(self):
        assert truth_not(TRUE) is FALSE
        assert truth_not(FALSE) is TRUE
        assert truth_not(UNKNOWN) is UNKNOWN

    def test_de_morgan_holds_in_3vl(self):
        for a in (TRUE, FALSE, UNKNOWN):
            for b in (TRUE, FALSE, UNKNOWN):
                assert truth_not(truth_and(a, b)) is truth_or(
                    truth_not(a), truth_not(b)
                )
                assert truth_not(truth_or(a, b)) is truth_and(
                    truth_not(a), truth_not(b)
                )

    def test_operator_overloads(self):
        assert (TRUE & UNKNOWN) is UNKNOWN
        assert (FALSE | UNKNOWN) is UNKNOWN
        assert (~UNKNOWN) is UNKNOWN


class TestInterpretationOperators:
    """Figure 3: ⌊P⌋ maps UNKNOWN to false, ⌈P⌉ maps it to true."""

    def test_floor(self):
        assert floor_interpret(TRUE) is True
        assert floor_interpret(FALSE) is False
        assert floor_interpret(UNKNOWN) is False

    def test_ceil(self):
        assert ceil_interpret(TRUE) is True
        assert ceil_interpret(FALSE) is False
        assert ceil_interpret(UNKNOWN) is True

    def test_truth_has_no_implicit_bool(self):
        with pytest.raises(TypeError):
            bool(TRUE)
        with pytest.raises(TypeError):
            if UNKNOWN:  # pragma: no cover - the raise is the point
                pass

    def test_is_helpers(self):
        assert TRUE.is_true() and not TRUE.is_false() and not TRUE.is_unknown()
        assert UNKNOWN.is_unknown()
        assert FALSE.is_false()


class TestNullEqual:
    """Figure 3's =ⁿ: NULL equals NULL for duplicate purposes."""

    def test_null_equals_null(self):
        assert null_equal(NULL, NULL) is True

    def test_null_vs_value(self):
        assert null_equal(NULL, 5) is False
        assert null_equal(5, NULL) is False

    def test_values(self):
        assert null_equal(5, 5) is True
        assert null_equal(5, 6) is False
        assert null_equal("a", "a") is True

    def test_row_equivalence(self):
        assert null_equal_rows((1, NULL, "x"), (1, NULL, "x")) is True
        assert null_equal_rows((1, NULL), (1, 2)) is False
        assert null_equal_rows((1,), (1, 2)) is False


class TestFolds:
    def test_truth_all(self):
        assert truth_all([]) is TRUE
        assert truth_all([TRUE, TRUE]) is TRUE
        assert truth_all([TRUE, UNKNOWN]) is UNKNOWN
        assert truth_all([UNKNOWN, FALSE]) is FALSE

    def test_truth_any(self):
        assert truth_any([]) is FALSE
        assert truth_any([FALSE, FALSE]) is FALSE
        assert truth_any([FALSE, UNKNOWN]) is UNKNOWN
        assert truth_any([UNKNOWN, TRUE]) is TRUE

    def test_from_bool(self):
        assert from_bool(True) is TRUE
        assert from_bool(False) is FALSE
