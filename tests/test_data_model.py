import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adjustkit.criterion import CriterionConfig, criterion_fit
from adjustkit.data_model import (
    Dataset,
    by_size,
    check_dimension,
    check_mask,
    deposit,
    indices_mask,
    load_csv,
    mask_indices,
    save_csv,
    split_by_treatment,
    subcube,
    subset_columns,
)
from adjustkit.errors import DimensionTooLarge, EmptyGroup, LargeDimension, SchemaError


def small_dataset():
    x = np.arange(12, dtype=float).reshape(4, 3)
    return Dataset(x=x, t=np.array([0, 1, 0, 1]), y=np.array([1.0, 2.0, 3.0, 4.0]))


class TestMaskNames:
    def test_roundtrip_examples(self):
        assert indices_mask(4, (1, 3)) == 0b0101
        assert mask_indices(0b0101) == (1, 3)
        assert mask_indices(0) == ()
        assert mask_indices(np.uint32(0b1000)) == (4,)

    def test_mask_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            check_mask(16, 4)
        with pytest.raises(ValueError, match="out of range"):
            check_mask(-1, 4)
        assert check_mask(np.uint32(15), 4) == 15
        with pytest.raises(ValueError, match="outside 1..4"):
            indices_mask(4, (5,))
        with pytest.raises(ValueError, match="outside 1..4"):
            indices_mask(4, (0,))
        with pytest.raises(ValueError, match="outside 1..4"):
            indices_mask(4, (2, -1))

    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_indices_roundtrip(self, p, data):
        idx = data.draw(
            st.lists(st.integers(1, p), unique=True, max_size=p).map(sorted)
        )
        mask = indices_mask(p, idx)
        assert check_mask(mask, p) == mask
        assert list(mask_indices(mask)) == idx
        assert indices_mask(p, mask_indices(mask)) == mask
        # an index one past the universe is refused wherever it stands
        with pytest.raises(ValueError):
            indices_mask(p, [*idx, p + 1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_by_size_is_the_two_key_lexsort(self, data):
        masks = data.draw(st.lists(st.integers(0, 2**24 - 1), max_size=300))
        if masks:
            masks += data.draw(st.lists(st.sampled_from(masks), max_size=100))
        arr = np.asarray(data.draw(st.permutations(masks)), dtype=np.uint32)
        want = arr[np.lexsort((arr, np.bitwise_count(arr)))]
        assert by_size(arr).tolist() == want.tolist()

    @given(st.lists(st.integers(0, 2**24 - 1), max_size=40))
    def test_by_size_order(self, masks):
        got = by_size(masks)
        assert got.dtype == np.uint32
        assert got.tolist() == sorted(masks, key=lambda m: (bin(m).count("1"), m))


class TestEnumeration:
    """The whole lattice is the sub-cube ``subcube(0, 2^p - 1)``."""

    def test_p2_complete(self):
        got = [mask_indices(m) for m in subcube(0, 0b11).tolist()]
        assert got == [(), (1,), (2,), (1, 2)]

    def test_p10_length(self):
        assert np.array_equal(subcube(0, (1 << 10) - 1), np.arange(1024))

    def test_p20_warns_once(self):
        # criterion_fit warns LargeDimension once for the full 2^20-subset
        # universe, so before select forks; walking it warns nothing, and
        # neither does a pruned universe at the same p
        rng = np.random.default_rng(20)
        d = Dataset(x=rng.normal(size=(200, 20)), t=np.tile([0, 1], 100), y=rng.normal(size=200))
        with pytest.warns(LargeDimension) as record:
            fit = criterion_fit(d, (0,))
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [table] = fit.tables()
            criterion_fit(d, (0,), config=CriterionConfig(universe=(1, (1 << 20) - 2)))
        assert table.masks.size == 1 << 20
        assert table.masks[:3].tolist() == [0, 1, 2]

    def test_dimension_guard(self):
        # check_dimension raises only; building the masks warns nothing
        with pytest.raises(DimensionTooLarge):
            check_dimension(25)
        with pytest.raises(ValueError):
            check_dimension(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_dimension(21)
            assert subcube(0, (1 << 21) - 1).size == 1 << 21

    def test_masks_ascending_uint32(self):
        m = subcube(0, (1 << 6) - 1)
        assert m.dtype == np.uint32
        assert m.size == 64
        assert (np.diff(m.astype(np.int64)) == 1).all()


def _deposit_one_bit_at_a_time(rank: int, keep: int) -> int:
    """Bit r of ``rank`` moved to the r-th index of ``keep``, one bit at a time."""
    mask, r = 0, 0
    for i in range(keep.bit_length()):
        if keep >> i & 1:
            mask |= (rank >> r & 1) << i
            r += 1
    return mask


# keeps over 24 indices: none, a low run 2^k - 1, one high bit, alternating
# bits, and sets holding both bit 0 and bit 23
KEEPS = (
    st.just(0)
    | st.integers(1, 24).map(lambda k: (1 << k) - 1)
    | st.integers(0, 23).map(lambda i: 1 << i)
    | st.sampled_from([0x555555, 0xAAAAAA])
    | st.integers(0, (1 << 24) - 1).map(lambda m: m | 1 | 1 << 23)
)


class TestDeposit:
    """`deposit` is the one map from the ranks of a sub-cube to its masks."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_one_bit_at_a_time(self, data):
        keep = data.draw(KEEPS, label="keep")
        dtype = data.draw(st.sampled_from([np.uint32, np.int64]), label="dtype")
        rank = st.integers(0, (1 << keep.bit_count()) - 1)
        ranks = np.array(data.draw(st.lists(rank, max_size=20), label="ranks"), dtype=dtype)
        got = deposit(ranks, keep)
        assert got.dtype == dtype
        assert got.tolist() == [_deposit_one_bit_at_a_time(r, keep) for r in ranks.tolist()]

    def test_low_run_is_the_identity(self):
        # keep = 2^k - 1 moves no bit, so the input comes back uncopied
        ranks = np.arange(8, dtype=np.uint32)
        assert deposit(ranks, 0b111) is ranks
        zero = ranks[:1]
        assert deposit(zero, 0) is zero


class TestDataset:
    def test_validation(self):
        d = small_dataset()
        assert d.n == 4 and d.p == 3
        with pytest.raises(ValueError):
            Dataset(x=np.ones((1, 2)), t=np.array([0]), y=np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(
                x=np.array([[1.0], [np.nan]]),
                t=np.array([0, 1]),
                y=np.array([0.0, 1.0]),
            )
        with pytest.raises(ValueError):
            Dataset(
                x=np.ones((2, 1)), t=np.array([0, 2]), y=np.array([0.0, 1.0])
            )

    def test_arrays_read_only(self):
        d = small_dataset()
        with pytest.raises(ValueError):
            d.x[0, 0] = 9.0
        with pytest.raises(ValueError):
            d.y[0] = 9.0
        # the dataset holds copies: the caller's float64 arrays stay writeable,
        # and writing to them leaves the dataset as it was
        x, y = np.zeros((4, 2)), np.zeros(4)
        d = Dataset(x=x, t=np.array([0, 1, 0, 1]), y=y)
        assert x.flags.writeable and y.flags.writeable
        x[0, 0], y[0] = 9.0, 9.0
        assert not d.x.any() and not d.y.any()

    def test_x_c_contiguous(self):
        # a column slice or a Fortran-ordered matrix is copied once, in C order
        x = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        for given in (x, x[:, [2, 0]]):
            d = Dataset(x=given, t=np.array([0, 1, 0, 1]), y=np.zeros(4))
            assert d.x.flags.c_contiguous
            assert np.array_equal(d.x, given)

    def test_with_x(self):
        d = small_dataset()
        d2 = d.with_x(d.x * 2.0)
        assert np.array_equal(d2.x, d.x * 2.0)
        assert np.array_equal(d2.t, d.t)
        assert np.array_equal(d2.y, d.y)

    def test_split_by_treatment(self):
        d = small_dataset()
        rows0, rows1 = split_by_treatment(d)
        assert rows0.tolist() == [0, 2]
        assert rows1.tolist() == [1, 3]
        bad = Dataset(x=np.ones((3, 1)), t=np.array([1, 1, 1]), y=np.zeros(3))
        with pytest.raises(EmptyGroup):
            split_by_treatment(bad)


class TestColumnOps:
    def test_subset_columns(self):
        m = np.arange(6.0).reshape(2, 3)
        a = indices_mask(3, (1, 3))
        assert np.array_equal(subset_columns(m, a), m[:, [0, 2]])
        assert subset_columns(m, 0).shape == (2, 0)

    @given(
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_subset_columns_matches_fancy_indexing(self, p, data):
        mask = data.draw(st.integers(0, (1 << p) - 1))
        m = np.arange(3.0 * p).reshape(3, p)
        cols = [i for i in range(p) if mask >> i & 1]
        assert np.array_equal(subset_columns(m, mask), m[:, cols])


class TestCsv:
    def test_roundtrip(self, tmp_path):
        d = small_dataset()
        path = tmp_path / "d.csv"
        save_csv(d, path)
        assert path.read_text().splitlines()[0] == "T,Y,X1,X2,X3"
        back = load_csv(path)
        assert np.array_equal(back.x, d.x)
        assert back.x.flags.c_contiguous
        assert np.array_equal(back.t, d.t)
        assert np.array_equal(back.y, d.y)

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("T,Y,X1\n0,1e-3,2.5e2\n1,2,3\n")
        d = load_csv(path)
        assert d.y[0] == 1e-3 and d.x[0, 0] == 250.0

    @pytest.mark.parametrize(
        "body",
        [
            "",  # empty file
            "Y,X1\n1,2\n3,4\n",  # missing T
            "T,Y,X2\n0,1,2\n1,3,4\n",  # covariates must start at X1
            "T,Y,X1,X3\n0,1,2,3\n1,4,5,6\n",  # gap in covariate names
            "T,Y,X1\n2,1,2\n0,3,4\n",  # T outside {0,1}
            "T,Y,X1\n0,nan,2\n1,3,4\n",  # non-finite
            "T,Y,X1\n0,1\n1,3,4\n",  # ragged row
            "T,Y,X1\n0,1,2\n",  # single data row
        ],
    )
    def test_schema_errors(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("T,Y,X1\n0,1,2\n   \n,,\n1,3,4\n\n")
        d = load_csv(path)
        assert d.n == 2
        assert np.array_equal(d.x[:, 0], [2.0, 4.0])

    def test_crlf_and_quoted_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'T,Y,X1\r\n0,"1.5",2\r\n1,3,"-4e-3"\r\n')
        d = load_csv(path)
        assert np.array_equal(d.y, [1.5, 3.0])
        assert np.array_equal(d.x[:, 0], [2.0, -4e-3])

    def test_quoted_header_after_spaces(self, tmp_path):
        # a quoted name after ", " is read without its quotes, as at a line
        # start (tests/test_malformed.py drew this header)
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("Y,T,X1\n1.5,0,2\n3,1,4\n")
        spaced.write_text('"Y", "T", "X1"\n1.5, 0, 2\n3, 1, 4\n')
        got, want = load_csv(spaced), load_csv(plain)
        for name in ("x", "t", "y"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_hash_in_field_is_not_a_comment(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("T,Y,X1\n0,1,2#3\n1,3,4\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("T,Y,X1\n0,1,2\n\n1,3\n0,5,6\n")
        with pytest.raises(SchemaError, match="line 4"):
            load_csv(path)

    def test_unterminated_quote_names_its_line(self, tmp_path):
        # np.loadtxt would read "5 through the next row as one field and name
        # no line of the file
        path = tmp_path / "d.csv"
        path.write_text('T,Y,X1,X2\n0,1.5,0.25,2\n1,3,4,"5\n0,2,1,1\n')
        with pytest.raises(SchemaError, match=r"^line 3: unterminated quote$"):
            load_csv(path)

    def test_doubled_quote_loads(self, tmp_path):
        # a quoted field holding "" has an even count of quotes: the line scan
        # passes it, and the parser reads "" as an empty quoted prefix
        path = tmp_path / "d.csv"
        path.write_text('T,Y,X1\n0,""1.5,2\n1,3,"4"\n')
        d = load_csv(path)
        assert np.array_equal(d.y, [1.5, 3.0])
        assert np.array_equal(d.x[:, 0], [2.0, 4.0])

    def test_byte_order_mark_ignored(self, tmp_path):
        text = "T,Y,X1\n0,1,2\n1,3,4\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        got, want = load_csv(marked), load_csv(plain)
        for name in ("x", "t", "y"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_repr_roundtrip_bit_exact_p17(self, tmp_path):
        rng = np.random.default_rng(17)
        x = rng.standard_t(3, size=(300, 17)) * 10.0 ** rng.integers(-12, 12, size=(300, 17))
        d = Dataset(x=x, t=rng.integers(0, 2, 300), y=rng.normal(size=300) * 1e-7)
        path = tmp_path / "p17.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert back.x.tobytes() == d.x.tobytes()
        assert back.y.tobytes() == d.y.tobytes()
        assert np.array_equal(back.t, d.t)
