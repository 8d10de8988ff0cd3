"""Tests for graph file IO round trips."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.build import from_edges
from repro.graph.io import (
    load_graph,
    read_edgelist,
    read_matrix_market,
    read_metis,
    write_edgelist,
    write_matrix_market,
    write_metis,
)


@pytest.fixture
def sample_graph():
    return from_edges(
        np.array([0, 1, 2, 3]),
        np.array([1, 2, 3, 0]),
        np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32),
    )


class TestEdgelist:
    def test_roundtrip(self, sample_graph, tmp_path):
        path = tmp_path / "g.txt"
        write_edgelist(sample_graph, path)
        g = read_edgelist(path)
        assert g == sample_graph

    def test_roundtrip_gzip(self, sample_graph, tmp_path):
        path = tmp_path / "g.txt.gz"
        write_edgelist(sample_graph, path)
        assert read_edgelist(path) == sample_graph

    def test_unweighted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edgelist(path)
        assert g.num_undirected_edges == 2
        assert np.all(g.weights == 1.0)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# SNAP header\n0 1\n")
        assert read_edgelist(path).num_undirected_edges == 1

    def test_gappy_ids_compacted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("10 20\n20 30\n")
        g = read_edgelist(path)
        assert g.num_vertices == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        assert read_edgelist(path).num_vertices == 0

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 x\n")
        with pytest.raises(GraphFormatError):
            read_edgelist(path)

    @pytest.mark.parametrize("bad, reason", [
        ("1 x", "could not convert 'x'"),
        ("1", "1 column"),
    ], ids=["token", "short-row"])
    def test_malformed_row_names_its_file_line(self, tmp_path, bad, reason):
        path = tmp_path / "g.txt"
        path.write_text(f"# header\n# more\n0 1\n\n{bad}\n2 3\n")
        with pytest.raises(GraphFormatError, match=rf"g\.txt: .*line 5: {reason}"):
            read_edgelist(path)


class TestMatrixMarket:
    def test_roundtrip(self, sample_graph, tmp_path):
        path = tmp_path / "g.mtx"
        write_matrix_market(sample_graph, path)
        assert read_matrix_market(path) == sample_graph

    def test_pattern_field(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n2 1\n3 2\n"
        )
        g = read_matrix_market(path)
        assert g.num_undirected_edges == 2
        assert np.all(g.weights == 1.0)

    def test_general_symmetry(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 1.0\n2 1 1.0\n"
        )
        g = read_matrix_market(path)
        assert g.num_undirected_edges == 1

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("1 1 0\n")
        with pytest.raises(GraphFormatError):
            read_matrix_market(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 0\n")
        with pytest.raises(GraphFormatError):
            read_matrix_market(path)

    def test_wrong_nnz_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 2 1.0\n"
        )
        with pytest.raises(GraphFormatError):
            read_matrix_market(path)

    def test_comment_lines_after_header(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% SuiteSparse metadata\n"
            "2 2 1\n2 1 1.0\n"
        )
        assert read_matrix_market(path).num_undirected_edges == 1


class TestMetis:
    def test_roundtrip(self, sample_graph, tmp_path):
        path = tmp_path / "g.graph"
        write_metis(sample_graph, path)
        assert read_metis(path) == sample_graph

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("5\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_wrong_line_count_rejected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 1 001\n2 1.0\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)


class TestLoadGraph:
    def test_dispatch_by_suffix(self, sample_graph, tmp_path):
        for suffix, writer in [
            (".mtx", write_matrix_market),
            (".graph", write_metis),
            (".txt", write_edgelist),
        ]:
            path = tmp_path / f"g{suffix}"
            writer(sample_graph, path)
            assert load_graph(path) == sample_graph

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_text("")
        with pytest.raises(GraphFormatError):
            load_graph(path)


class TestTruncatedGzip:
    """A .gz file cut off mid-transfer must fail as a format error with a
    location, never a bare EOFError from inside the decompressor."""

    @staticmethod
    def _truncate(path, fraction=0.5):
        data = path.read_bytes()
        path.write_bytes(data[: max(1, int(len(data) * fraction))])

    @pytest.fixture
    def big_gz_edgelist(self, tmp_path):
        import gzip

        path = tmp_path / "big.txt.gz"
        with gzip.open(path, "wt") as fh:
            for i in range(20_000):
                fh.write(f"{i} {i + 1}\n")
        return path

    def test_truncated_edgelist_raises_format_error(self, big_gz_edgelist):
        self._truncate(big_gz_edgelist)
        with pytest.raises(GraphFormatError, match="truncated or corrupt"):
            read_edgelist(big_gz_edgelist)

    def test_error_reports_byte_offset(self, big_gz_edgelist):
        self._truncate(big_gz_edgelist)
        with pytest.raises(GraphFormatError, match="compressed byte \\d+"):
            read_edgelist(big_gz_edgelist)

    def test_error_names_the_file(self, big_gz_edgelist):
        self._truncate(big_gz_edgelist)
        with pytest.raises(GraphFormatError, match="big.txt.gz"):
            read_edgelist(big_gz_edgelist)

    def test_corrupt_body_raises_format_error(self, big_gz_edgelist):
        data = bytearray(big_gz_edgelist.read_bytes())
        for i in range(64, min(len(data), 256)):
            data[i] ^= 0xFF  # smash the deflate stream, keep the header
        big_gz_edgelist.write_bytes(bytes(data))
        with pytest.raises(GraphFormatError, match="truncated or corrupt"):
            read_edgelist(big_gz_edgelist)

    def test_truncated_mtx_raises_format_error(self, sample_graph, tmp_path):
        path = tmp_path / "g.mtx.gz"
        write_matrix_market(sample_graph, path)
        self._truncate(path, fraction=0.6)
        with pytest.raises(GraphFormatError, match="truncated or corrupt"):
            read_matrix_market(path)

    def test_truncated_metis_raises_format_error(self, sample_graph, tmp_path):
        path = tmp_path / "g.graph.gz"
        write_metis(sample_graph, path)
        self._truncate(path, fraction=0.6)
        with pytest.raises(GraphFormatError, match="truncated or corrupt"):
            read_metis(path)

    def test_intact_gzip_still_loads(self, big_gz_edgelist):
        g = read_edgelist(big_gz_edgelist)
        assert g.num_vertices == 20_001


class TestWeightHygiene:
    """Parse-time NaN/Inf/negative rejection with line-number context."""

    def write_el(self, tmp_path, body):
        path = tmp_path / "g.txt"
        path.write_text(body)
        return path

    def test_nan_rejected_with_lineno(self, tmp_path):
        path = self.write_el(tmp_path, "# c\n0 1 1.0\n1 2 nan\n")
        with pytest.raises(GraphFormatError, match=r"NaN edge weight.*line 3"):
            read_edgelist(path)

    def test_negative_rejected_with_lineno(self, tmp_path):
        path = self.write_el(tmp_path, "0 1 1.0\n1 2 -2.5\n")
        with pytest.raises(GraphFormatError, match=r"negative edge weight.*line 2"):
            read_edgelist(path)

    def test_inf_rejected(self, tmp_path):
        path = self.write_el(tmp_path, "0 1 inf\n")
        with pytest.raises(GraphFormatError, match="infinite"):
            read_edgelist(path)

    def test_float64_overflow_rejected(self, tmp_path):
        # finite in float64 but beyond fp32: silently casting would make inf
        path = self.write_el(tmp_path, "0 1 1e39\n")
        with pytest.raises(GraphFormatError, match="overflowing"):
            read_edgelist(path)

    def test_repair_policy_loads(self, tmp_path):
        path = self.write_el(tmp_path, "0 1 nan\n1 2 -1.0\n2 0 2.0\n")
        g = read_edgelist(path, validate="repair")
        assert g.num_undirected_edges == 3
        assert np.all(np.isfinite(g.weights))
        assert np.all(g.weights >= 0)

    def test_quarantine_policy_drops(self, tmp_path):
        path = self.write_el(tmp_path, "0 1 nan\n1 2 1.0\n2 0 2.0\n")
        g = read_edgelist(path, validate="quarantine")
        assert g.num_undirected_edges == 2

    def test_unweighted_files_unaffected(self, tmp_path):
        path = self.write_el(tmp_path, "0 1\n1 2\n")
        assert read_edgelist(path).num_undirected_edges == 2

    def test_unknown_policy_rejected(self, tmp_path):
        path = self.write_el(tmp_path, "0 1 1.0\n")
        with pytest.raises(GraphFormatError, match="unknown weight policy"):
            read_edgelist(path, validate="lenient")

    def test_mtx_lineno_accounts_for_comments(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% one comment line\n"
            "3 3 4\n"
            "1 2 1.0\n"
            "2 1 1.0\n"
            "2 3 nan\n"
            "3 2 nan\n"
        )
        with pytest.raises(GraphFormatError, match=r"line 6"):
            read_matrix_market(path)
        g = read_matrix_market(path, validate="repair")
        assert g.num_undirected_edges == 2

    def test_metis_vertex_line_context(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 3 001\n2 1.0 3 2.0\n1 1.0 3 nan\n1 2.0 2 nan\n")
        with pytest.raises(GraphFormatError, match=r"line 3"):
            read_metis(path)
        g = read_metis(path, validate="quarantine")
        assert g.num_undirected_edges == 2

    def test_load_graph_threads_policy(self, tmp_path):
        path = self.write_el(tmp_path, "0 1 nan\n1 2 1.0\n")
        with pytest.raises(GraphFormatError):
            load_graph(path)
        g = load_graph(path, validate="repair")
        assert g.num_undirected_edges == 2


class TestVertexIdHygiene:
    """Ids that are not integers are refused with file and line, never
    truncated to another vertex."""

    @pytest.mark.parametrize("token", ["1.5", "nan", "inf", "1e300"])
    def test_edgelist_non_integer_id(self, tmp_path, token):
        path = tmp_path / "g.txt"
        path.write_text(f"# c\n0 2\n0 {token}\n")
        with pytest.raises(GraphFormatError, match=r"g\.txt: vertex id .* line 3"):
            read_edgelist(path)

    def test_edgelist_fractional_source_with_weights(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n2.5 1 1.0\n")
        with pytest.raises(GraphFormatError, match=r"vertex id 2\.5 on line 2"):
            read_edgelist(path)

    def test_mtx_non_integer_id(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "3 3 2\n"
            "1 2 1.0\n"
            "2 2.5 1.0\n"
        )
        with pytest.raises(GraphFormatError, match=r"g\.mtx: vertex id 2\.5 on line 5"):
            read_matrix_market(path)

    def test_mtx_non_numeric_token(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n"
            "1 2 1.0\n"
            "2 x 1.0\n"
        )
        with pytest.raises(GraphFormatError, match=r"g\.mtx: malformed entries"):
            read_matrix_market(path)

    @pytest.mark.parametrize("body", [
        "3 2\n2.5\n1 3\n2\n",
        "3 2 001\n2.5 1.0\n1 1.0 3 1.0\n2 1.0\n",
    ], ids=["unweighted", "weighted"])
    def test_metis_non_integer_id(self, tmp_path, body):
        path = tmp_path / "g.graph"
        path.write_text(body)
        with pytest.raises(GraphFormatError, match=r"g\.graph: vertex id 2\.5 on line 2"):
            read_metis(path)

    def test_metis_non_numeric_token(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 2\n2\n1 x\n2\n")
        with pytest.raises(GraphFormatError, match=r"g\.graph: malformed adjacency on line 3"):
            read_metis(path)

    def test_integral_float_ids_still_load(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1.0\n1e0 2\n")
        assert read_edgelist(path).num_undirected_edges == 2
