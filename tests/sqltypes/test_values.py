"""SQL value comparisons, arithmetic, and sort/group keys under NULL."""

import pytest

from repro.errors import ExecutionError, TypeMismatchError
from repro.sqltypes.truth import FALSE, TRUE, UNKNOWN
from repro.sqltypes.values import (
    NULL,
    NullsFirstKey,
    group_key,
    is_null,
    sort_key,
    sql_add,
    sql_compare_eq,
    sql_compare_ge,
    sql_compare_gt,
    sql_compare_le,
    sql_compare_lt,
    sql_compare_ne,
    sql_div,
    sql_mul,
    sql_neg,
    sql_sub,
)


class TestNullSingleton:
    def test_identity(self):
        from repro.sqltypes.values import _Null

        assert _Null() is NULL

    def test_is_null(self):
        assert is_null(NULL)
        assert not is_null(None)
        assert not is_null(0)
        assert not is_null("")

    def test_repr(self):
        assert repr(NULL) == "NULL"

    def test_no_truth_value(self):
        with pytest.raises(TypeError):
            bool(NULL)

    def test_pickle_preserves_singleton(self):
        import pickle

        assert pickle.loads(pickle.dumps(NULL)) is NULL


class TestComparisons:
    def test_null_operand_gives_unknown(self):
        for compare in (
            sql_compare_eq, sql_compare_ne, sql_compare_lt,
            sql_compare_le, sql_compare_gt, sql_compare_ge,
        ):
            assert compare(NULL, 1) is UNKNOWN
            assert compare(1, NULL) is UNKNOWN
            assert compare(NULL, NULL) is UNKNOWN

    def test_value_comparisons(self):
        assert sql_compare_eq(3, 3) is TRUE
        assert sql_compare_eq(3, 4) is FALSE
        assert sql_compare_ne(3, 4) is TRUE
        assert sql_compare_lt(3, 4) is TRUE
        assert sql_compare_le(4, 4) is TRUE
        assert sql_compare_gt(5, 4) is TRUE
        assert sql_compare_ge(4, 5) is FALSE

    def test_mixed_numeric_types(self):
        assert sql_compare_eq(1, 1.0) is TRUE
        assert sql_compare_lt(1, 1.5) is TRUE

    def test_incomparable_types_raise(self):
        with pytest.raises(TypeMismatchError):
            sql_compare_eq(1, "1")
        with pytest.raises(TypeMismatchError):
            sql_compare_lt(True, 1)

    @pytest.mark.parametrize(
        "compare",
        [
            sql_compare_eq, sql_compare_ne, sql_compare_lt,
            sql_compare_le, sql_compare_gt, sql_compare_ge,
        ],
    )
    def test_boolean_against_integer_raises_whichever_side(self, compare):
        # Same-type operands skip the domain check; True and 1 are of two
        # types (bool subclasses int), so it still runs and refuses them.
        with pytest.raises(TypeMismatchError):
            compare(True, 1)
        with pytest.raises(TypeMismatchError):
            compare(1, True)
        with pytest.raises(TypeMismatchError):
            compare(False, 0.0)

    def test_same_type_operands_compare_without_the_domain_check(self):
        import datetime

        assert sql_compare_eq(True, True) is TRUE
        assert sql_compare_lt(False, True) is TRUE
        assert sql_compare_gt(datetime.date(2020, 1, 2), datetime.date(2020, 1, 1)) is TRUE
        assert sql_compare_ne(7, 7) is FALSE

    def test_strings(self):
        assert sql_compare_lt("abc", "abd") is TRUE


class TestArithmetic:
    def test_null_propagates(self):
        assert is_null(sql_add(NULL, 1))
        assert is_null(sql_sub(1, NULL))
        assert is_null(sql_mul(NULL, NULL))
        assert is_null(sql_div(NULL, 2))
        assert is_null(sql_neg(NULL))

    def test_basic(self):
        assert sql_add(2, 3) == 5
        assert sql_sub(2, 3) == -1
        assert sql_mul(2, 3) == 6
        assert sql_neg(4) == -4

    def test_integer_division_truncates_toward_zero(self):
        assert sql_div(7, 2) == 3
        assert sql_div(-7, 2) == -3
        assert sql_div(7, -2) == -3

    def test_float_division(self):
        assert sql_div(7.0, 2) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            sql_div(1, 0)


class TestSortKeys:
    def test_nulls_sort_first(self):
        rows = [(3,), (NULL,), (1,)]
        ordered = sorted(rows, key=sort_key)
        assert is_null(ordered[0][0])
        assert ordered[1] == (1,)
        assert ordered[2] == (3,)

    def test_nulls_compare_equal_for_sorting(self):
        assert NullsFirstKey(NULL) == NullsFirstKey(NULL)
        assert not NullsFirstKey(NULL) < NullsFirstKey(NULL)

    def test_null_below_everything(self):
        assert NullsFirstKey(NULL) < NullsFirstKey(-(10**9))
        assert not NullsFirstKey(0) < NullsFirstKey(NULL)

    def test_hash_consistency(self):
        assert hash(NullsFirstKey(NULL)) == hash(NullsFirstKey(NULL))
        assert hash(NullsFirstKey(3)) == hash(NullsFirstKey(3))


class TestGroupKeys:
    def test_null_groups_with_null(self):
        assert group_key((NULL, 1)) == group_key((NULL, 1))

    def test_null_does_not_group_with_value(self):
        assert group_key((NULL,)) != group_key((0,))
        assert group_key((NULL,)) != group_key(("",))

    def test_bool_does_not_collide_with_int(self):
        # Python's True == 1; SQL's BOOLEAN and INTEGER are distinct domains.
        assert group_key((True,)) != group_key((1,))

    def test_numeric_cross_type_grouping(self):
        # 1 and 1.0 are equal values: duplicate semantics groups them.
        assert group_key((1,)) == group_key((1.0,))

    def test_hashable(self):
        {group_key((NULL, "a", 1)): 1}
