"""Text formats (round trips, self-verifying certificates) and the CLI."""

import argparse
import contextlib
import io
import os
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kinser as K
from kinser import engine, fileio
from kinser.cli import COMMANDS, build_parser, main
from kinser.core import validate_rank_table
from kinser.engine import BadFamilyCertificate

from oracles import literal_rank_tokens


class TestMatroidFormat:
    @pytest.mark.parametrize("maker", [
        lambda: K.uniform(2, 4),
        lambda: K.fano_pair()[0],
        lambda: K.fano_pair()[1],
        lambda: K.kinser(4),
        lambda: K.kinser_relaxed(4),
        lambda: K.binary_spike(4),
        lambda: K.dowling(2, 3),
    ])
    def test_round_trip_identity(self, maker):
        M = maker()
        again = K.parse_matroid(K.write_matroid(M))
        assert again.table_equal(M)
        assert again.label == M.label
        assert again.layout == M.layout
        assert K.write_matroid(again) == K.write_matroid(M)

    def test_rank_axiom_checked_on_load(self):
        M = K.uniform(2, 4)
        text = K.write_matroid(M)
        bad = text.replace("\n0 1 1 2", "\n0 2 1 2", 1)  # r({0}) = 2 breaks R1
        with pytest.raises(K.FormatError) as err:
            K.parse_matroid(bad)
        assert "R1" in str(err.value)

    def test_matrix_body_builds_fano(self, fano):
        text = (
            "matroid v1\n"
            "label F7\n"
            "elements 7\n"
            "rank 3\n"
            "matrix p=2\n"
            "1 0 0 1 1 0 1\n"
            "0 1 0 1 0 1 1\n"
            "0 0 1 0 1 1 1\n"
        )
        assert K.parse_matroid(text).table_equal(fano)

    def test_circuits_body(self, u24):
        text = (
            "matroid v1\n"
            "elements 4\n"
            "rank 2\n"
            "circuits\n"
            "0,1,2\n0,1,3\n0,2,3\n1,2,3\n"
        )
        assert K.parse_matroid(text).table_equal(u24)

    def test_transversal_body(self):
        text = (
            "matroid v1\n"
            "elements 3\n"
            "rank 2\n"
            "transversal\n"
            "0,1\n1,2\n"
        )
        M = K.parse_matroid(text)
        assert M.rank(0b111) == 2

    @pytest.mark.parametrize("body", ["matrix p=2\n1 0 1\n0 1 1\n", "transversal\n0,2\n1,2\n"])
    def test_generated_bodies_keep_layout(self, body):
        M = K.parse_matroid(f"matroid v1\nelements 3\nrank 2\n{body}layout A=0,1\nlayout B=2\n")
        assert M.table_equal(K.uniform(2, 3))
        assert M.layout == {"A": 0b011, "B": 0b100}

    def test_layout_part_outside_ground_refused(self, tmp_path, capsys):
        text = K.write_matroid(K.uniform(2, 4)) + "layout A=0,10\n"
        with pytest.raises(K.MatroidError, match="outside ground size 4"):
            K.parse_matroid(text)
        path = tmp_path / "m.mtr"
        path.write_text(text)
        assert main(["transform", "dual", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "outside ground size 4" in captured.err

    def test_repeated_layout_part_refused(self, tmp_path, capsys):
        # as a certificate's repeated line is: the last line does not win
        text = K.write_matroid(K.uniform(2, 4)) + "layout a=0\nlayout b=2\nlayout a=1\n"
        with pytest.raises(K.FormatError, match="layout names the part 'a' twice"):
            K.parse_matroid(text)
        path = tmp_path / "m.mtr"
        path.write_text(text)
        assert main(["enumerate", "--kind", "flats", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "layout names the part 'a' twice" in captured.err

    @pytest.mark.parametrize("line", ["label", "label ", "label \t "])
    def test_label_line_without_text_is_the_empty_label(self, line):
        # the writer leaves the line out for an empty label
        unlabelled = K.Matroid(4, K.uniform(2, 4).table)
        text = K.write_matroid(unlabelled)
        assert "label" not in text
        lines = text.splitlines(keepends=True)
        M = K.parse_matroid("".join(lines[:1] + [line + "\n"] + lines[1:]))
        assert M.label == "" and M.table_equal(unlabelled)
        assert K.write_matroid(M) == text

    def test_rank_tokens_longer_than_int64_digits(self):
        text = K.write_matroid(K.uniform(2, 4))
        padded = "0" * 21 + "2"
        M = K.parse_matroid(text.replace("\n0 1 1 2", f"\n0 1 1 {padded}", 1))
        assert M.table_equal(K.uniform(2, 4))
        with pytest.raises(K.FormatError, match="rank value 9{25} outside"):
            K.parse_matroid(text.replace("\n0 1 1 2", "\n0 1 1 " + "9" * 25, 1))

    @pytest.mark.parametrize("p, error", [
        (2 ** 61 - 1, None),
        ((2 ** 31 - 1) ** 2, "not prime"),
        (3317044064679887385961981, "not below"),
    ])
    def test_huge_modulus_decided_fast(self, p, error, tmp_path, capsys):
        text = f"matroid v1\nelements 3\nrank 2\nmatrix p={p}\n1 0 1\n0 1 1\n"
        t0 = time.perf_counter()
        if error is None:
            assert K.parse_matroid(text).table_equal(K.uniform(2, 3))
        else:
            with pytest.raises(K.MatroidError, match=error):
                K.parse_matroid(text)
            path = tmp_path / "m.mtr"
            path.write_text(text)
            assert main(["enumerate", "--kind", "flats", "-i", str(path)]) == 2
            assert error in capsys.readouterr().err
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("p", [0, 1])
    def test_modulus_below_two_is_not_prime(self, p, tmp_path, capsys):
        text = f"matroid v1\nelements 3\nrank 2\nmatrix p={p}\n1 0 1\n0 1 1\n"
        with pytest.raises(K.FormatError, match=f"^modulus {p} is not prime$"):
            K.parse_matroid(text)
        path = tmp_path / "m.mtr"
        path.write_text(text)
        assert main(["enumerate", "--kind", "flats", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: modulus {p} is not prime\n"

    @pytest.mark.parametrize("line, bad, message", [
        ("elements 4", "elements 4 9", "bad ground size '4 9'"),
        ("rank 2", "rank 2 junk", "bad rank '2 junk'"),
    ])
    def test_trailing_token_on_elements_or_rank_line_refused(self, line, bad, message,
                                                             tmp_path, capsys):
        text = K.write_matroid(K.uniform(2, 4))
        assert f"\n{line}\n" in text
        text = text.replace(f"\n{line}\n", f"\n{bad}\n")
        with pytest.raises(K.FormatError, match=f"^{message}$"):
            K.parse_matroid(text)
        path = tmp_path / "m.mtr"
        path.write_text(text)
        assert main(["enumerate", "--kind", "flats", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_declared_rank_mismatch(self):
        text = "matroid v1\nelements 2\nrank 1\nranks\n0 1 1 2\n"
        with pytest.raises(K.FormatError):
            K.parse_matroid(text)

    def test_missing_header(self):
        with pytest.raises(K.FormatError):
            K.parse_matroid("elements 2\nrank 1\nranks\n0 1 1 1\n")


def literal_ranks_body(ranks: list[int]) -> str:
    """A ranks body written literally: each 16 values joined by spaces, a line."""
    return "".join(" ".join(str(v) for v in ranks[i:i + 16]) + "\n"
                   for i in range(0, len(ranks), 16))


class TestRanksText:
    @pytest.mark.parametrize("maker, two_digit", [
        (lambda: K.uniform(1, 2), False),
        (lambda: K.uniform(2, 3), False),
        (lambda: K.uniform(9, 9), False),
        (lambda: K.uniform(10, 10), True),
        (lambda: K.uniform(12, 12), True),
        # not monotone: r(E) = 3 but the largest rank is 11
        (lambda: K.Matroid(12, np.append(K.uniform(12, 12).table[:-1], 3), validate=False),
         True),
        (lambda: K.kinser(6), False),
        (lambda: K.dual(K.kinser(6)), True),
    ])
    def test_writer_matches_literal_writer(self, maker, two_digit):
        M = maker()
        assert (int(M.table.max()) >= 10) == two_digit
        assert fileio._ranks_body(M.table) == literal_ranks_body(M.table.tolist())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 24), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([*range(1, 10), 17]))
    def test_writer_matches_literal_writer_at_every_block_size(self, m, top, seed, block):
        # random tables are not monotone; blocks of 1..9 and 17 values cut
        # the lines of 16 values everywhere
        table = np.random.default_rng(seed).integers(0, top, 1 << m, np.uint8, endpoint=True)
        body = literal_ranks_body(table.tolist())
        with mock.patch.object(fileio, "RANKS_CHUNK", block):
            assert fileio._ranks_body(table) == body
            if top <= m:
                M = K.Matroid(m, table, validate=False)
                assert K.write_matroid(M).partition("\nranks\n")[2] == body

    def test_write_and_parse_memory_is_per_block(self):
        # the writer holds its block cells and the finished text: the body
        # string and the file text joined from it, two copies of the output;
        # the reader adds to validation only the table and its block chunks
        M = K.dual(K.uniform(2, 16))
        assert int(M.table.max()) >= 10
        block = 1 << 12
        with mock.patch.object(fileio, "RANKS_CHUNK", block):
            tracemalloc.start()
            try:
                text = K.write_matroid(M)
                write_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                validate_rank_table(M.m, M.table)
                validate_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                again = K.parse_matroid(text)
                parse_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert again.table_equal(M)
        assert write_peak < 2 * len(text) + 16 * block
        assert parse_peak < validate_peak + M.table.nbytes + 16 * block

    def test_body_without_whitespace_is_cut_without_reading_characters(self):
        # a chunk end is found by one search, not character by character
        reads = []

        class Text(str):
            def __getitem__(self, key):
                if isinstance(key, int):
                    reads.append(key)
                return super().__getitem__(key)

        body = Text("1" * (4 << 20) + "\n")
        with pytest.raises(K.FormatError, match="non-decimal token '1{24}'"):
            fileio._rank_values(body, [(0, len(body))], 22)
        assert reads == []

    @pytest.mark.parametrize("comment", ["# l", "# all lines", "#layout A=1", "# lay"])
    def test_comment_holding_an_l_before_the_layout_lines(self, comment):
        # the layout lines are found by a search for 'l' that a comment may
        # stop at first
        M = K.Matroid(4, K.uniform(2, 4).table, label="U", layout={"A": 0b11, "B": 0b100})
        text = K.write_matroid(M).replace(" 2\n", f" 2\n{comment}\n", 1)
        assert text.count(comment) == 1
        again = K.parse_matroid(text)
        assert again.table_equal(M) and again.layout == M.layout

    @pytest.mark.parametrize("bad, message", [
        ("x", "non-decimal token 'x' in ranks body"),
        (":", "non-decimal token ':' in ranks body"),   # the byte after '9'
        ("/", "non-decimal token '/' in ranks body"),   # the byte before '0'
        ("-", "non-decimal token '-' in ranks body"),
        ("+", "non-decimal token '+' in ranks body"),
        ("\u00e9", "non-ASCII character '\u00e9' in ranks body"),
        ("7", "rank value 7 outside [0, 4]"),
    ])
    @pytest.mark.parametrize("at", [0, 5, 15])
    def test_one_byte_tokens_refused_at_every_chunk_size(self, bad, message, at):
        # every token is one byte, so the chunks that hold no bad byte take
        # the digits-only path; each error is the general path's
        head, body, tail = ranks_lines(K.write_matroid(K.uniform(2, 4)), 4)
        tokens = " ".join(body).split()
        tokens[at] = bad
        text = head + " ".join(tokens[:8]) + "\n" + " ".join(tokens[8:]) + "\n"
        for chunk in (fileio.RANKS_CHUNK, *range(1, 10)):
            with mock.patch.object(fileio, "RANKS_CHUNK", chunk):
                with pytest.raises(K.FormatError) as exc:
                    K.parse_matroid(text)
            assert str(exc.value) == message

    @pytest.mark.parametrize("bad, message", [
        ("1:", "non-decimal token '1:' in ranks body"),
        (":1", "non-decimal token ':1' in ranks body"),
        ("/9", "non-decimal token '/9' in ranks body"),
        ("+11", "rank value 11 outside [0, 10]"),       # a sign sends the chunk token by token
        ("-1", "rank value -1 outside [0, 10]"),
        ("11", "rank value 11 outside [0, 10]"),
    ])
    def test_two_byte_tokens_refused_at_every_chunk_size(self, bad, message):
        head, body, tail = ranks_lines(K.write_matroid(K.uniform(10, 10)), 10)
        tokens = " ".join(body).split()
        tokens[1000] = bad
        text = head + " ".join(tokens[:500]) + "\n" + " ".join(tokens[500:]) + "\n"
        for chunk in (fileio.RANKS_CHUNK, *range(1, 10)):
            with mock.patch.object(fileio, "RANKS_CHUNK", chunk):
                with pytest.raises(K.FormatError) as exc:
                    K.parse_matroid(text)
            assert str(exc.value) == message

    @pytest.mark.parametrize("maker", [
        lambda: K.uniform(10, 12),
        lambda: K.uniform(11, 12),
        lambda: K.dual(K.uniform(1, 12)),
    ])
    def test_two_digit_tables_read_at_every_chunk_size(self, maker):
        M = maker()
        text = K.write_matroid(M)
        _, body, _ = ranks_lines(text, M.m)
        assert literal_rank_tokens("\n".join(body)) == M.table.tolist()
        for chunk in (fileio.RANKS_CHUNK, *range(1, 10)):
            with mock.patch.object(fileio, "RANKS_CHUNK", chunk):
                assert K.parse_matroid(text).table_equal(M)

    @pytest.mark.parametrize("chunk", [fileio.RANKS_CHUNK, *range(1, 10)])
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_token_streams_match_literal_reader(self, chunk, data):
        # the stream is 2^m tokens (or one more or fewer) cycled from a short
        # list of tokens whose digits read at most m, plus perhaps one bad token
        m = data.draw(st.integers(1, 10) | st.just(10))
        plain = st.integers(0, m).map(str)
        good = (plain | plain
                | st.builds(lambda z, v: "0" * z + str(v), st.integers(1, 3), st.integers(0, m))
                | st.builds(lambda s, v: s + str(v), st.sampled_from("+-"), st.integers(0, m)))
        bad = (st.integers(m + 1, 999).map(str)
               | st.sampled_from([":", "/", "1:", "x", "+", "-", "+-1", "1x", "\x1f", "3\x1f4",
                                  "1_0", "\u0663", "\u00e9"]))
        tokens = data.draw(st.lists(good, min_size=1, max_size=8))
        if data.draw(st.booleans()):
            tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(bad))
        seps = data.draw(st.lists(st.sampled_from([" ", "  ", "\n", "\t", "\r\n", "\x0b",
                                                   "\x0c", " \n "]), min_size=1, max_size=4))
        count = (1 << m) + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
        text = "".join(tokens[i % len(tokens)] + seps[i % len(seps)] for i in range(count))
        try:
            expected = literal_rank_tokens(text)
        except ValueError:
            expected = None
        if expected is not None and (len(expected) != 1 << m
                                     or not all(0 <= v <= m for v in expected)):
            expected = None
        with mock.patch.object(fileio, "RANKS_CHUNK", chunk):
            try:
                got = fileio._rank_values(text, [(0, len(text))], m).tolist()
            except K.FormatError:
                got = None
        assert got == expected


def format_elements(mask: int) -> str:
    """The element list of one mask by a literal join, with the writers' error."""
    if mask >> 24:
        raise K.MatroidError(f"mask {mask:#x} has an element outside [0, 24)")
    return ",".join(str(e) for e in range(mask.bit_length()) if mask >> e & 1) or "-"


def literal_lines(masks) -> str:
    return "".join(format_elements(x) + "\n" for x in masks)


class TestElementLines:
    def test_random_masks_match_format_elements(self):
        masks = np.random.default_rng(5).integers(0, 1 << 24, 150_000).tolist()
        masks[:0] = [0, (1 << 24) - 1]
        masks[70_000:70_000] = [0, (1 << 24) - 1, 0]
        masks += [(1 << 24) - 1, 0]
        assert fileio.format_element_lines(masks) == literal_lines(masks)
        assert fileio.format_element_lines([]) == ""

    def test_enumerate_bases_across_blocks(self, tmp_path, capsys):
        M = K.uniform(10, 20)
        mfile = tmp_path / "u.mtr"
        mfile.write_text(K.write_matroid(M))
        assert main(["enumerate", "--kind", "bases", "-i", str(mfile)]) == 0
        masks = M.enumerate("bases")
        assert len(masks) == 184_756 > 2 * fileio.LINES_BLOCK
        assert capsys.readouterr().out == literal_lines(masks)

    @pytest.mark.parametrize("masks", [
        [1 << 24], [3, 5 | 1 << 24, 1 << 30], [1, -1], [1 << 70, 1 << 24],
    ])
    def test_mask_outside_ground_refused_as_format_elements(self, masks):
        with pytest.raises(K.MatroidError) as want:
            literal_lines(masks)
        with pytest.raises(K.MatroidError) as got:
            fileio.format_element_lines(masks)
        assert str(got.value) == str(want.value)


class TestCertificateFormat:
    def test_vamos_certificate_round_trip(self, vamos):
        cert = K.membership(vamos, 4).certificate
        text = K.write_certificate(cert)
        again = K.parse_certificate(text, vamos)
        assert again == cert
        assert again.lhs - again.rhs == 1

    def test_tampered_rhs_is_stale(self, vamos):
        cert = K.membership(vamos, 4).certificate
        text = K.write_certificate(cert).replace("rhs 15", "rhs 14")
        with pytest.raises(K.StaleCertificateError):
            K.parse_certificate(text, vamos)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace("X2 2,3\n", "X2 2,3\nX1 0,1\n"), "certificate repeats the 'X1' line"),
        (lambda t: t.replace("X1 0,1\n", "X01 0,1\n"), "bad set index in 'X01'"),
        (lambda t: t.replace("X1 0,1\n", "X\u0661 0,1\n"), "bad set index in 'X\u0661'"),
        (lambda t: t + "lhs 16\n", "certificate repeats the 'lhs' line"),
        (lambda t: t.replace("rhs 15\n", "rhs 14\nrhs 15\n"),
         "certificate repeats the 'rhs' line"),
        (lambda t: t.replace("X3 4,5\n", "X3 4,\u0665\n"), "bad element list '4,\u0665'"),
        (lambda t: t.replace("n 4\n", "n 0_4\n"), "bad n '0_4'"),
        (lambda t: t + "foo bar\n", "unknown certificate line 'foo'"),
        (lambda t: t + "X\u00b2 9\n", "unknown certificate line 'X\u00b2'"),
    ])
    def test_malformed_lines_refused(self, vamos, edit, message):
        text = K.write_certificate(K.membership(vamos, 4).certificate)
        assert text.splitlines()[3:] == ["X1 0,1", "X2 2,3", "X3 4,5", "X4 6,7",
                                         "lhs 16", "rhs 15"]
        with pytest.raises(K.FormatError) as exc:
            K.parse_certificate(edit(text), vamos)
        assert str(exc.value) == message

    def test_wrong_matroid_is_stale(self, vamos, z4):
        cert = K.membership(vamos, 4).certificate
        with pytest.raises(K.StaleCertificateError):
            K.parse_certificate(K.write_certificate(cert), z4)

    def test_kin5_canonical_certificate(self, kin5_relaxed):
        fam = K.canonical_family(kin5_relaxed, "kinser")
        value = K.evaluate(kin5_relaxed, fam)
        cert = BadFamilyCertificate(kin5_relaxed.label,
                                    K.content_fingerprint(kin5_relaxed),
                                    fam, value.lhs, value.rhs)
        assert (cert.lhs, cert.rhs) == (29, 28)
        again = K.parse_certificate(K.write_certificate(cert), kin5_relaxed)
        assert again == cert

    def test_fingerprint_tracks_content_not_label(self, u24):
        relabeled = K.Matroid(u24.m, u24.table, label="other", validate=False)
        assert K.content_fingerprint(u24) == K.content_fingerprint(relabeled)
        tightened = K.tighten(u24, 0b0011)
        assert K.content_fingerprint(u24) != K.content_fingerprint(tightened)


class TestCli:
    def test_build_and_check_vamos(self, tmp_path, capsys):
        mfile = tmp_path / "vamos.mtr"
        cfile = tmp_path / "vamos.cert"
        assert main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)]) == 0
        code = main(["check", "-n", "4", "-i", str(mfile), "-o", str(cfile)])
        assert code == 1
        out = capsys.readouterr().out
        assert "not-in-class" in out
        cert = K.parse_certificate(cfile.read_text(), K.parse_matroid(mfile.read_text()))
        assert cert.lhs - cert.rhs == 1

    def test_check_fano_in_class(self, tmp_path, capsys):
        mfile = tmp_path / "fano.mtr"
        assert main(["build", "fano", "-o", str(mfile)]) == 0
        assert main(["check", "-n", "4", "-i", str(mfile)]) == 0
        assert "in-class" in capsys.readouterr().out

    def test_eval_prints_terms(self, tmp_path, capsys):
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        code = main(["eval", "-n", "4", "-i", str(mfile),
                     "--family", "@V1;@V2;@V3;@V4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lhs 16" in out and "rhs 15" in out and "satisfied false" in out
        assert sum(1 for ln in out.splitlines() if ln.startswith("term ")) == 10

    def test_eval_family_starting_with_dash_needs_equals(self, tmp_path, capsys):
        # argparse reads a separate '-;...' value as an option
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        capsys.readouterr()
        assert main(["eval", "-n", "4", "-i", str(mfile), "--family", "-;@V2;@V3;@V4"]) == 2
        assert "expected one argument" in capsys.readouterr().err
        assert main(["eval", "-n", "4", "-i", str(mfile), "--family=-;@V2;@V3;@V4"]) == 0
        out = capsys.readouterr().out
        assert "satisfied true" in out and "term lhs pair X1+X2 rank=2 set=2,3" in out

    def test_transform_pipeline(self, tmp_path):
        a = tmp_path / "kin4.mtr"
        b = tmp_path / "vamos.mtr"
        c = tmp_path / "back.mtr"
        main(["build", "kinser", "--r", "4", "-o", str(a)])
        assert main(["transform", "relax", "--set", "@V1+V2",
                     "-i", str(a), "-o", str(b)]) == 0
        assert main(["transform", "tighten", "--set", "@V1+V2",
                     "-i", str(b), "-o", str(c)]) == 0
        kin = K.parse_matroid(a.read_text())
        back = K.parse_matroid(c.read_text())
        assert back.table_equal(kin)

    def test_transform_dual_and_minor(self, tmp_path):
        a = tmp_path / "u.mtr"
        b = tmp_path / "d.mtr"
        main(["build", "uniform", "--k", "3", "--m", "5", "-o", str(a)])
        assert main(["transform", "dual", "-i", str(a), "-o", str(b)]) == 0
        assert K.parse_matroid(b.read_text()).table_equal(K.uniform(2, 5))
        assert main(["transform", "minor", "--delete", "0", "--contract", "1",
                     "-i", str(a), "-o", str(b)]) == 0
        assert K.parse_matroid(b.read_text()).table_equal(K.uniform(2, 3))

    @pytest.mark.parametrize("op", ["delete", "contract", "truncate"])
    def test_transform_element_ops_and_truncate(self, op, kin4, tmp_path):
        a, b = tmp_path / "kin4.mtr", tmp_path / "out.mtr"
        main(["build", "kinser", "--r", "4", "-o", str(a)])
        assert main(["transform", op, "--element", "3", "-i", str(a), "-o", str(b)]) == 0
        expect = K.truncate(kin4) if op == "truncate" else getattr(K, op)(kin4, 3)[0]
        assert b.read_text() == K.write_matroid(expect)

    @pytest.mark.parametrize("argv, maker", [
        (["kinser-base", "--r", "4"], lambda: K.kinser_base(4)),
        (["dowling", "--group", "z2", "--n", "2"], lambda: K.dowling(2, 2)),
    ], ids=["kinser-base", "dowling"])
    def test_build_without_output_writes_stdout(self, argv, maker, capsys):
        assert main(["build", *argv]) == 0
        assert capsys.readouterr().out == K.write_matroid(maker())

    def test_direct_sum(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("f.mtr", "g.mtr", "s.mtr"))
        main(["build", "fano", "-o", str(a)])
        main(["build", "nonfano", "-o", str(b)])
        assert main(["transform", "direct-sum", "-i", str(a), "--with", str(b),
                     "-o", str(c)]) == 0
        M = K.parse_matroid(c.read_text())
        assert (M.m, M.rank_total) == (14, 6)

    def test_enumerate_flats(self, tmp_path, capsys):
        mfile = tmp_path / "f7.mtr"
        main(["build", "fano", "-o", str(mfile)])
        assert main(["enumerate", "--kind", "flats", "-i", str(mfile)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 16 and out[0] == "-"

    def test_enumerate_prints_literal_element_lists(self, kin6_relaxed, tmp_path, capsys):
        # U(2,20) and Kin(6)^- flats hold elements in all three mask bytes
        for M in (K.uniform(2, 20), kin6_relaxed):
            mfile = tmp_path / "m.mtr"
            mfile.write_text(K.write_matroid(M))
            assert main(["enumerate", "--kind", "flats", "-i", str(mfile)]) == 0
            literal = [",".join(str(e) for e in range(M.m) if x >> e & 1) or "-"
                       for x in M.enumerate("flats")]
            assert capsys.readouterr().out == "".join(line + "\n" for line in literal)
        with pytest.raises(K.MatroidError):
            fileio.format_element_lines([1 << 24])

    def test_bench_subcommand_removed(self):
        assert main(["bench"]) == 2
        assert main(["bench", "--spike-range", "4..4"]) == 2

    def test_axioms_subcommand_removed(self, tmp_path):
        # every subcommand that reads a file validates it on load
        mfile = tmp_path / "z4.mtr"
        main(["build", "spike", "--r", "4", "-o", str(mfile)])
        assert main(["axioms", "-i", str(mfile)]) == 2
        assert main(["axioms", "-i", str(mfile), "--which", "closure"]) == 2

    @pytest.mark.parametrize("group", ["z26", "z800"])
    def test_oversized_dowling_group_refused_fast(self, group, capsys):
        t0 = time.perf_counter()
        assert main(["build", "dowling", "--group", group, "--n", "1"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "group order" in capsys.readouterr().err

    def test_oversized_kinser_rank_refused(self, capsys):
        assert main(["build", "kinser", "--r", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds cap 24" in captured.err

    @pytest.mark.parametrize("group", ["z", "z 3", "z+3", "z1_0", "z\u0663"])
    def test_dowling_group_must_be_z_and_ascii_digits(self, group, capsys):
        assert main(["build", "dowling", "--group", group, "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--group" in captured.err

    @pytest.mark.parametrize("n", ["-2", "0", "1", "2", "3"])
    def test_check_index_below_four_exits_2_before_searching(self, n, tmp_path, capsys,
                                                             monkeypatch):
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])

        def no_search(*args):
            raise AssertionError("the search space was built")

        monkeypatch.setattr(engine, "_space_masks", no_search)
        assert main(["check", "-n", n, "-i", str(mfile)]) == 2
        assert f"inequality index must be >= 4, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["995", "100000"])
    def test_check_large_index_in_class(self, n, tmp_path, capsys):
        # the chain distances stop changing within F - 1 = 15 hops, so the
        # search does not grow with n, and the stats line stays printable:
        # 4 orbit rows of X1 times 16^3 (X2, X3, Xn)
        mfile = tmp_path / "f.mtr"
        main(["build", "fano", "-o", str(mfile)])
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(["check", "-n", n, "-i", str(mfile)]) == 0
        assert time.perf_counter() - t0 < 5.0
        captured = capsys.readouterr()
        assert captured.out == f"in-class n={n} matroid=F7\n"
        assert "tuples=16384 " in captured.err

    def test_eval_index_must_match_family(self, tmp_path, capsys):
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        capsys.readouterr()
        assert main(["eval", "-n", "7", "-i", str(mfile), "--family", "0;1;2;3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "family needs 7 sets, got 4" in captured.err

    def test_check_reports_x1_rows_on_stderr_only(self, tmp_path, capsys, monkeypatch):
        # Vamos: 79 flats in 14 automorphism orbits
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        monkeypatch.setattr(engine, "ORBIT_SCAN_MIN", 0)
        capsys.readouterr()
        outs = []
        for extra, x1 in (([], "x1=14/79"), (["--no-prune"], "x1=79/79")):
            assert main(["check", "-n", "4", "-i", str(mfile)] + extra) == 1
            captured = capsys.readouterr()
            assert x1 in captured.err
            outs.append(captured.out)
        assert outs[0] == outs[1] and outs[0].startswith("not-in-class n=4")

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_parallel_below_one_exits_2(self, width, tmp_path, capsys):
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        assert main(["check", "-n", "4", "-i", str(mfile), "--parallel", width]) == 2
        assert "--parallel must be at least 1" in capsys.readouterr().err

    def test_invalid_input_exits_2(self, tmp_path):
        assert main(["check", "-n", "4", "-i", str(tmp_path / "nope.mtr")]) == 2
        assert main(["build", "uniform", "--k", "9", "--m", "3"]) == 2
        bad = tmp_path / "bad.mtr"
        bad.write_text("not a matroid file\n")
        assert main(["enumerate", "--kind", "flats", "-i", str(bad)]) == 2
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("value", ["300", "-1"])
    def test_out_of_range_rank_exits_2(self, tmp_path, capsys, value):
        text = K.write_matroid(K.uniform(2, 4))
        bad = tmp_path / "bad.mtr"
        bad.write_text(text.replace("\n0 1 1 2", f"\n0 {value} 1 2", 1))
        with pytest.raises(K.FormatError):
            K.parse_matroid(bad.read_text())
        assert main(["check", "-n", "4", "-i", str(bad)]) == 2
        assert f"rank value {value} outside [0, 4]" in capsys.readouterr().err

    def test_byte_determinism_including_parallel(self, tmp_path, capsys):
        # the n = 4 chunks are X1 rows, the n >= 5 chunks X2 columns
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        capsys.readouterr()
        for n in ("4", "5", "1000"):
            outs, certs = [], []
            for args in (["check", "-n", n, "-i", str(mfile)],
                         ["check", "-n", n, "-i", str(mfile)],
                         ["check", "-n", n, "-i", str(mfile), "--parallel", "2"]):
                cfile = tmp_path / f"n{n}-c{len(outs)}.cert"
                assert main(args + ["-o", str(cfile)]) == 1
                outs.append(capsys.readouterr().out)
                certs.append(cfile.read_bytes())
            assert outs[0] == outs[1] == outs[2]
            assert certs[0] == certs[1] == certs[2]
            cert = K.parse_certificate(certs[0].decode(), VAMOS)
            assert cert.family.n == int(n) and cert.lhs > cert.rhs

    def test_check_all_subsets_space(self, tmp_path):
        mfile = tmp_path / "u.mtr"
        main(["build", "uniform", "--k", "1", "--m", "3", "-o", str(mfile)])
        assert main(["check", "-n", "5", "-i", str(mfile), "--space", "all"]) == 0

    def test_check_dual_flag(self, tmp_path):
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        assert main(["check", "-n", "4", "-i", str(mfile), "--dual"]) == 1

    @pytest.mark.parametrize("line, bad, message", [
        ("elements 8", "elements 0_8", "bad ground size '0_8'"),
        ("elements 8", "elements \u0668", "bad ground size '\u0668'"),
        ("rank 4", "rank 0_4", "bad rank '0_4'"),
        ("rank 4", "rank \u0664", "bad rank '\u0664'"),
        ("layout V3=4,5", "layout V3=4,1_0", "bad element list '4,1_0'"),
        ("layout V3=4,5", "layout V3=4,\u0665", "bad element list '4,\u0665'"),
    ])
    def test_non_ascii_decimal_in_file_exits_2(self, line, bad, message, tmp_path, capsys):
        # int() also reads '0_8' and the Arabic-Indic digits; the reader must not
        text = K.write_matroid(K.kinser_relaxed(4))
        assert f"\n{line}\n" in text
        mfile = tmp_path / "bad.mtr"
        mfile.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"), encoding="utf-8")
        assert main(["enumerate", "--kind", "flats", "-i", str(mfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_overlong_decimal_tokens_are_format_errors(self, tmp_path, capsys):
        # int() refuses more than 4300 digits with a ValueError of its own
        long = "0" * 5000 + "3"
        text = K.write_matroid(K.kinser_relaxed(4))
        for bad in (text.replace("\nelements 8\n", f"\nelements {long}\n"),
                    text.replace("\nlayout V3=4,5\n", f"\nlayout V3=4,{long}\n")):
            with pytest.raises(K.FormatError, match="^bad (ground size|element list) '"):
                K.parse_matroid(bad)
        head, body, tail = ranks_lines(text, 8)
        body[0] = body[0].replace("0 1 ", f"0 {long[:-1]}1 ", 1)   # 5001 digits, value 1
        bad = head + "\n".join(body + tail) + "\n"
        with pytest.raises(K.FormatError) as exc:
            K.parse_matroid(bad)
        assert str(exc.value) == f"non-decimal token {long[:24]!r} in ranks body"
        mfile = tmp_path / "long.mtr"
        mfile.write_text(bad)
        assert main(["enumerate", "--kind", "flats", "-i", str(mfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {exc.value}\n"
        cert = K.write_certificate(K.membership(VAMOS, 4).certificate)
        for bad in (cert.replace("X1 0,1\n", f"X{long} 0,1\n"),
                    cert.replace("X1 0,1\n", f"X1 0,{long}\n")):
            with pytest.raises(K.FormatError, match="^bad (set index|element list) '"):
                K.parse_certificate(bad, VAMOS)

    def test_empty_circuit_in_file_exits_2(self, tmp_path, capsys):
        mfile = tmp_path / "empty.mtr"
        mfile.write_text("matroid v1\nelements 2\nrank 0\ncircuits\n-\n")
        assert main(["enumerate", "--kind", "flats", "-i", str(mfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: empty set listed as a circuit\n"

    def test_signed_rank_line_reads_as_the_ranks_body_does(self):
        # an ASCII sign is accepted, as in the ranks body, where '+2' is a token
        text = K.write_matroid(K.kinser_relaxed(4)).replace("\nrank 4\n", "\nrank +4\n")
        assert K.parse_matroid(text).rank_total == 4
        with pytest.raises(K.FormatError, match="bad rank '\\+-4'"):
            K.parse_matroid(text.replace("rank +4", "rank +-4"))

    @pytest.mark.parametrize("token", ["1_0", "\u0663", " 3", "3.0", "0x3", ""])
    def test_integer_options_read_as_ascii_decimals(self, token, tmp_path, capsys):
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        capsys.readouterr()
        for argv in (["transform", "delete", "--element", token, "-i", str(mfile)],
                     ["eval", "-n", token, "-i", str(mfile), "--family", "0;1;2;3"],
                     ["check", "-n", token, "-i", str(mfile)],
                     ["check", "-n", "4", "-i", str(mfile), "--parallel", token],
                     ["build", "uniform", "--k", token, "--m", "4"],
                     ["build", "uniform", "--k", "1", "--m", token],
                     ["build", "kinser", "--r", token],
                     ["build", "kinser-relaxed", "--also-relax", token],
                     ["build", "dowling", "--n", token]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"invalid integer value: {token!r}" in captured.err, argv

    def test_signed_integer_option_accepted(self, tmp_path, capsys):
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        outs = []
        for element in ("3", "+3", "03"):
            assert main(["transform", "delete", "--element", element, "-i", str(mfile)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "+3", " 3 4"])
    def test_non_ascii_decimal_element_exits_2(self, token, tmp_path, capsys):
        mfile = tmp_path / "v.mtr"
        main(["build", "kinser-relaxed", "--r", "4", "-o", str(mfile)])
        capsys.readouterr()
        for argv in (["eval", "-n", "4", "-i", str(mfile), "--family", f"0;{token};2;4"],
                     ["transform", "relax", "-i", str(mfile), "--set", token],
                     ["transform", "minor", "-i", str(mfile), "--delete", token]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: bad element list {token.strip()!r}\n"



def run_captured(parse, argv):
    """Exit code, stdout and stderr of ``parse(argv)``; a SystemExit gives
    the code ``main`` maps it to."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = 2 if exc.code not in (0, None) else 0
    return code, out.getvalue(), err.getvalue()


# per subcommand: a required argument missing, an invalid choice (an
# invalid integer for eval, which has no choices), and an extra argument
# after a complete command line, which the top-level parser refuses
USAGE_ERRORS = {
    "build": [["build"], ["build", "bogus"], ["build", "fano", "extra"]],
    "transform": [["transform", "dual"], ["transform", "bogus", "-i", "x"],
                  ["transform", "dual", "-i", "x", "extra"]],
    "eval": [["eval", "-n", "4", "-i", "x"], ["eval", "-n", "four", "-i", "x", "--family", "0"],
             ["eval", "-n", "4", "-i", "x", "--family", "0", "extra"]],
    "check": [["check", "-i", "x"], ["check", "-n", "4", "-i", "x", "--space", "bogus"],
              ["check", "-n", "4", "-i", "x", "extra"]],
    "enumerate": [["enumerate", "-i", "x"], ["enumerate", "--kind", "bogus", "-i", "x"],
                  ["enumerate", "--kind", "flats", "-i", "x", "extra"]],
}


class TestParserEquivalence:
    """``main`` builds only the invoked subcommand's parser; its help and
    usage errors are byte-equal to those of the parser with all five."""

    def test_every_subcommand_covered(self):
        assert list(USAGE_ERRORS) == list(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_and_usage_errors_match_full_parser(self, command):
        full = build_parser().parse_args
        for argv in [[command, "-h"], *USAGE_ERRORS[command]]:
            got = run_captured(main, argv)
            assert got == run_captured(full, argv), argv
            assert got[0] == (0 if argv[-1] == "-h" else 2), argv
        assert run_captured(main, [command, "-h"])[1].startswith(f"usage: kinser {command} ")

    def test_top_level_help_lists_every_subcommand(self):
        code, out, err = run_captured(main, ["-h"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: kinser [-h] {build,transform,eval,check,enumerate} ...\n")
        for name, (help_text, _, _) in COMMANDS.items():
            assert f"    {name}" in out and help_text in out

    @pytest.mark.parametrize("argv", [["bogus"], [], ["-x"]])
    def test_unknown_or_missing_subcommand(self, argv):
        code, out, err = run_captured(main, argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: kinser [-h] {build,transform,eval,check,enumerate} ...\n")
        if argv == ["bogus"]:
            assert "argument command: invalid choice: 'bogus'" in err

    def test_main_builds_one_subparser(self, tmp_path, capsys):
        # the top-level parser and the check subparser, not all five
        mfile = tmp_path / "fano.mtr"
        mfile.write_text(K.write_matroid(K.fano_pair()[0]))
        with mock.patch("argparse.ArgumentParser.__init__", autospec=True,
                        side_effect=argparse.ArgumentParser.__init__) as init:
            assert main(["check", "-n", "4", "-i", str(mfile)]) == 0
        assert init.call_count == 2
        assert "in-class n=4" in capsys.readouterr().out


# -- property and fuzz tests of the parsers --------------------------------------


@st.composite
def small_matroids(draw):
    """Valid matroids with m in 1..10: GF(2)/GF(3) column matroids and uniform
    matroids (U(10, 10) has a two-digit rank), with a label and a layout."""
    m = draw(st.integers(1, 10))
    if draw(st.booleans()):
        p, rows = draw(st.sampled_from([2, 3])), draw(st.integers(1, 4))
        entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * m,
                                max_size=rows * m))
        table = K.from_matrix(K.MatrixGFp(p, rows, m, tuple(entries))).table
    else:
        table = K.uniform(draw(st.integers(0, m)), m).table
    label = draw(st.sampled_from(["", "M", "two words"]))
    layout = draw(st.dictionaries(st.sampled_from(["A", "B", "pair"]),
                                  st.integers(0, (1 << m) - 1), max_size=2))
    return K.Matroid(m, table, label=label, layout=layout or None)


BLANKS = st.text(alphabet=" \t", max_size=3)
COMMENTS = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                   max_size=12).map(lambda t: "#" + t)


def ranks_lines(text: str, m: int) -> tuple[str, list[str], list[str]]:
    """(header through 'ranks', the ranks lines, the layout lines) of a written file."""
    head, _, rest = text.partition("\nranks\n")
    lines = rest.splitlines()
    n_lines = -(-(1 << m) // 16)
    return head + "\nranks\n", lines[:n_lines], lines[n_lines:]


class TestParserProperties:
    @settings(max_examples=80, deadline=None)
    @given(small_matroids())
    def test_write_then_parse_is_identity(self, M):
        text = K.write_matroid(M)
        again = K.parse_matroid(text)
        assert again.table_equal(M)
        assert (again.label, again.layout) == (M.label, M.layout)
        assert K.write_matroid(again) == text
        # the last ranks line holds 2^m mod 16 values when m < 4
        _, body, _ = ranks_lines(text, M.m)
        assert literal_rank_tokens("\n".join(body)) == M.table.tolist()

    @settings(max_examples=60, deadline=None)
    @given(small_matroids(), st.data())
    def test_noise_in_body_matches_literal_reader(self, M, data):
        head, body, tail = ranks_lines(K.write_matroid(M), M.m)
        noisy = []
        for line in body:
            noisy += data.draw(st.lists(BLANKS | COMMENTS, max_size=2))
            sep = " " + data.draw(BLANKS)
            noisy.append(data.draw(BLANKS) + sep.join(line.split()) + data.draw(BLANKS))
        noisy += data.draw(st.lists(BLANKS | COMMENTS, max_size=2))
        again = K.parse_matroid(head + "\n".join(noisy + tail) + "\n")
        assert again.table.tolist() == literal_rank_tokens("\n".join(noisy))
        assert again.table_equal(M)
        assert (again.label, again.layout) == (M.label, M.layout)

    @settings(max_examples=60, deadline=None)
    @given(small_matroids(), st.integers(1, 9), st.data())
    def test_small_chunks_match_literal_reader(self, M, chunk, data):
        # chunks of a few characters cut the body next to every token and
        # every comment or layout line placed between its lines; zeros in
        # front of the ranks make tokens longer than a chunk
        head, body, tail = ranks_lines(K.write_matroid(M), M.m)
        zeros = "0" * data.draw(st.integers(0, 3))
        lines = [" ".join(zeros + tok for tok in ln.split()) for ln in body] + tail
        for line in data.draw(st.lists(COMMENTS, max_size=3)):
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        for line in tail:
            lines.remove(line)
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        text = head + "\n".join(lines) + data.draw(st.sampled_from(["\n", "", "\r\n"]))
        with mock.patch.object(fileio, "RANKS_CHUNK", chunk):
            again = K.parse_matroid(text)
        kept = [ln for ln in lines if not ln.startswith(("#", "layout"))]
        assert again.table.tolist() == literal_rank_tokens("\n".join(kept))
        assert (again.label, again.layout) == (M.label, M.layout)


VAMOS = K.kinser_relaxed(4)
VAMOS_CERT = K.write_certificate(K.membership(VAMOS, 4).certificate)
SEED_TEXTS = [
    K.write_matroid(K.uniform(2, 4)),
    K.write_matroid(VAMOS),
    "matroid v1\nelements 4\nrank 2\ncircuits\n0,1,2\n0,1,3\n0,2,3\n1,2,3\n",
    "matroid v1\nlabel F7\nelements 7\nrank 3\nmatrix p=2\n"
    "1 0 0 1 1 0 1\n0 1 0 1 0 1 1\n0 0 1 0 1 1 1\n",
    "matroid v1\nelements 3\nrank 2\ntransversal\n0,1\n1,2\n",
    VAMOS_CERT,
]
FUZZ_LINES = [
    "matroid v1", "kinser-certificate v1", "label x", "elements 4", "elements 3",
    "elements 0", "elements -2", "elements x", "elements 99", "rank 2", "rank -1",
    "rank x", "ranks", "circuits", "transversal", "matrix p=2", "matrix p=0",
    "matrix p=-3", "matrix p=x", "matrix", "layout A=0,1", "layout A", "layout =",
    "# comment", "", "0 1 1 2", "0 1 1 1 1 2 2 2", "0,1,2", "0,1", "1 0 1 0", "-1",
    "300", "x", "-", "+", "+-1", "1,99", "1,-1", "1,99999999999", "n 4", "n 0",
    "n -3", "n 99999999999", "X1 0,1", "X2 -", "X3 2", "X4 3", "X9 1", "X\u00b2 1",
    "X\u0663 1", "lhs 1", "rhs x", "matroid Kin(4)- 0123456789abcdef",
]
FUZZ_LINE = st.sampled_from(FUZZ_LINES) | st.text(max_size=12)


@st.composite
def fuzzed_texts(draw):
    """Free text, random lines, or a valid file with a few lines edited."""
    kind = draw(st.sampled_from(["text", "lines", "edited"]))
    if kind == "text":
        return draw(st.text(max_size=200))
    if kind == "lines":
        return "\n".join(draw(st.lists(FUZZ_LINE, max_size=12)))
    lines = draw(st.sampled_from(SEED_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["insert", "delete", "replace", "splice"]))
        if op == "insert" or not lines:
            lines.insert(i, draw(FUZZ_LINE))
        elif op == "delete":
            del lines[min(i, len(lines) - 1)]
        elif op == "replace":
            lines[min(i, len(lines) - 1)] = draw(FUZZ_LINE)
        else:
            j = min(i, len(lines) - 1)
            tokens = lines[j].split()
            tokens.insert(draw(st.integers(0, len(tokens))), draw(FUZZ_LINE))
            lines[j] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestParserFuzz:
    @FUZZ
    @given(fuzzed_texts())
    def test_parse_matroid_yields_value_or_matroid_error(self, text):
        try:
            M = K.parse_matroid(text)
        except K.MatroidError:
            return
        assert isinstance(M, K.Matroid) and K.validate_rank_table(M.m, M.table).ok

    @FUZZ
    @given(fuzzed_texts())
    def test_parse_certificate_yields_value_or_matroid_error(self, text):
        try:
            cert = K.parse_certificate(text, VAMOS)
        except K.MatroidError:
            return
        assert cert.lhs > cert.rhs

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzzed_texts(), st.sampled_from([
        ["check", "-n", "4"], ["enumerate", "--kind", "flats"],
        ["transform", "dual"]]))
    def test_cli_exits_0_1_or_2(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.mtr")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command + ["-i", path])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
