import itertools
import math
import re

import numpy as np
import pytest

from crystalpretrain.structures import (CrystalStructure, MalformedNumber,
                                        MissingTag, NonP1Symmetry, RepeatedDataName,
                                        SecondDataBlock, StructureError,
                                        UnknownElement, UnterminatedTextField,
                                        lattice_from_parameters,
                                        parse_cif, wrap_frac, write_cif)
from crystalpretrain import structures
from crystalpretrain.structures import _TOKEN_RE, _parse_number, _read_sites, _scan, _tokenize
from conftest import CUBIC_FE_CIF, random_structure


def test_parse_cubic_fe():
    s = parse_cif(CUBIC_FE_CIF)
    assert np.array_equal(s.lattice, np.diag([3.0, 3.0, 3.0]))
    assert s.atomic_numbers.tolist() == [26]
    assert np.array_equal(s.frac_coords, [[0.0, 0.0, 0.0]])


def test_parse_wraps_coordinates():
    text = CUBIC_FE_CIF.replace("Fe1 Fe 0.0 0.0 0.0", "Fe1 Fe 1.25 -0.25 0.5")
    s = parse_cif(text)
    assert s.frac_coords[0].tolist() == [0.25, 0.75, 0.5]


def test_parse_hexagonal_lattice():
    text = """\
data_hex
_cell_length_a 2.0
_cell_length_b 2.0
_cell_length_c 3.0
_cell_angle_alpha 90.0
_cell_angle_beta 90.0
_cell_angle_gamma 120.0
loop_
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
C 0.0 0.0 0.0
"""
    s = parse_cif(text)
    expected = np.array([
        [2.0, 0.0, 0.0],
        [-1.0, math.sqrt(3.0), 0.0],
        [0.0, 0.0, 3.0],
    ])
    assert np.allclose(s.lattice, expected, atol=1e-12)


@pytest.mark.parametrize("tag", [
    "_cell_length_a", "_cell_length_c", "_cell_angle_gamma"])
def test_missing_cell_tag(tag):
    text = "\n".join(line for line in CUBIC_FE_CIF.splitlines()
                     if not line.startswith(tag))
    with pytest.raises(MissingTag) as err:
        parse_cif(text)
    assert err.value.tag == tag


def test_missing_site_loop():
    text = CUBIC_FE_CIF.split("loop_")[0]
    with pytest.raises(MissingTag):
        parse_cif(text)


def test_unknown_element():
    with pytest.raises(UnknownElement) as err:
        parse_cif(CUBIC_FE_CIF.replace("Fe1 Fe", "Qq1 Qq"))
    assert err.value.symbol == "Qq"


def test_element_symbol_variants():
    assert parse_cif(CUBIC_FE_CIF.replace("Fe1 Fe", "fe1 FE")).atomic_numbers[0] == 26
    assert parse_cif(CUBIC_FE_CIF.replace("Fe1 Fe", "Fe2+ Fe2+")).atomic_numbers[0] == 26


def test_non_p1_symmetry_loop():
    text = CUBIC_FE_CIF + """\
loop_
_symmetry_equiv_pos_as_xyz
'x, y, z'
'-x, -y, -z'
"""
    with pytest.raises(NonP1Symmetry):
        parse_cif(text)


def test_identity_symmetry_loop_accepted():
    text = CUBIC_FE_CIF + "loop_\n_symmetry_equiv_pos_as_xyz\n'x, y, z'\n"
    assert parse_cif(text).n_sites == 1


def test_non_p1_space_group_name():
    with pytest.raises(NonP1Symmetry):
        parse_cif("_symmetry_space_group_name_H-M 'P 21/c'\n" + CUBIC_FE_CIF)


def test_malformed_number_reports_line():
    text = CUBIC_FE_CIF.replace("_cell_length_b 3.0", "_cell_length_b oops")
    with pytest.raises(MalformedNumber) as err:
        parse_cif(text)
    assert err.value.line_number == 3


def test_number_with_uncertainty_suffix():
    s = parse_cif(CUBIC_FE_CIF.replace("_cell_length_a 3.0", "_cell_length_a 3.0(2)"))
    assert s.lattice[0, 0] == 3.0


# line -> tokens, as the character-by-character reader gave them
TOKEN_CASES = {
    "_name 'a quoted value' 3": ["_name", "a quoted value", "3"],
    "_tag \"it's\" 'say \"hi\"'": ["_tag", "it's", 'say "hi"'],
    "'unterminated quote runs on": ["unterminated quote runs on"],
    "x '": ["x", ""],
    "x '' y": ["x", "", "y"],
    "'a'b": ["a", "b"],
    '"two words"tail': ["two words", "tail"],
    "#comment only": [],
    "a #comment after": ["a"],
    "a\t#x": ["a"],
    "a#b c": ["a#b", "c"],
    "'#' kept": ["#", "kept"],
    "\tFe1\tFe\t0.5 ": ["Fe1", "Fe", "0.5"],
}


@pytest.mark.parametrize("line", list(TOKEN_CASES))
def test_tokenize_characterization(line):
    assert _tokenize(line) == TOKEN_CASES[line]


@pytest.mark.parametrize("token, value", [
    ("3.0(2)", 3.0), ("1.5e-3(4)", 0.0015), ("1d-3", 0.001), ("1D+2", 100.0),
    (".5", 0.5), ("5.", 5.0), ("-2", -2.0)])
def test_parse_number_characterization(token, value):
    assert _parse_number(token, 1) == value


@pytest.mark.parametrize("old, new, line, token", [
    ("_cell_length_c 3.0", "_cell_length_c 1.0e", 4, "1.0e"),
    ("Fe1 Fe 0.0 0.0 0.0", "Fe1 Fe 0.0 .  0.0", 14, "."),
    ("Fe1 Fe 0.0 0.0 0.0", "Fe1 Fe 0.0 0.0 1(2", 14, "1(2")])
def test_malformed_number_line_characterization(old, new, line, token):
    with pytest.raises(MalformedNumber) as err:
        parse_cif(CUBIC_FE_CIF.replace(old, new))
    assert (err.value.line_number, err.value.token) == (line, token)


EIGHT_LINES = "loop_\n_a\n_b\n1 2\n_c 3\nloop_\n_d\n4"

# text -> (scalars, [(tags, rows)]), as the index-driven reader gave them,
# save the semicolon and text-field cases: it read a text field's lines as CIF.
# A CIF that _scan refuses maps to (error, line) instead: the index-driven
# reader kept a repeated data name's last value and read on past a second
# data block
SCAN_CASES = {
    "empty-line-in-tags": ("loop_\n_a\n\n_b\n1 2\n",
        {"_b": (4, "")},
        [(["_a"], [])]),
    "comment-in-tags": ("loop_\n_a\n# note\n_b\n1 2\n",
        {"_b": (4, "")},
        [(["_a"], [])]),
    # a text field is one cell of the loop, a row at its opening line
    "semicolon-in-loop": ("loop_\n_a\n1\n;\ntext\n;\n",
        {},
        [(["_a"], [(3, ["1"]), (4, ["\ntext"])])]),
    # a text field with no tag before it is skipped, its lines unread
    "semicolon-top-level": (";\n_x 1\n;\nloose words\n",
        {},
        []),
    "capitals": ("DATA_x\nLOOP_\n_A\n1\nDATA_y\n2\n",
        SecondDataBlock, 5),
    "loop-then-scalar": ("loop_\n_a 1\n2\n",
        {"_a": (2, "1")},
        [([], [])]),
    "loop-after-loop": ("loop_\nloop_\n_b\n3\n",
        {},
        [([], []), (["_b"], [(4, ["3"])])]),
    "quoted-head": ("'_q' 2\nloop_\n_t\nx\n'_q' 5\ny\n",
        RepeatedDataName, 5),
    "tags-no-rows-at-end": ("_x 1\nloop_\n_a\n_b",
        {"_x": (1, "1")},
        [(["_a", "_b"], [])]),
    "scalar-no-value": ("_empty\n_full 'a b'\n",
        {"_empty": (1, ""), "_full": (2, "a b")},
        []),
    # a field is the value of the tag before it, blank lines between them
    # aside; its lines are not tokenized, and the closing line's rest is read
    "text-field-values": ("_title\n\n;first\n_cell_length_a 9.0\nloop_\n; _x 2\n"
                          "loop_\n_a\n;\n'q\n;\n",
        {"_title": (1, "first\n_cell_length_a 9.0\nloop_"), "_x": (6, "2")},
        [(["_a"], [(9, ["\n'q"])])]),
    "text-field-after-value": ("_x 1\n;\nt\n;\n",
        {"_x": (1, "1")},
        []),
    "eight-lines": (EIGHT_LINES,
        {"_c": (5, "3")},
        [(["_a", "_b"], [(4, ["1", "2"])]), (["_d"], [(8, ["4"])])]),
}


@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_scan_characterization(case):
    text, scalars, loops = SCAN_CASES[case]
    if isinstance(scalars, type):
        with pytest.raises(scalars) as err:
            _scan(text)
        assert err.value.line_number == loops
        return
    got_scalars, got_loops = _scan(text)
    assert got_scalars == scalars
    assert [(loop.tags, loop.rows) for loop in got_loops] == loops


def test_scan_tokenizes_each_line_once(monkeypatch):
    calls = []

    def counting(line):
        calls.append(line)
        return _tokenize(line)

    monkeypatch.setattr(structures, "_tokenize", counting)
    five_sites = CrystalStructure(np.diag([3.0, 4.0, 5.0]),
                                  np.linspace(0.1, 0.9, 15).reshape(5, 3), [26, 8, 8, 1, 6])
    for text in (write_cif(five_sites), EIGHT_LINES):
        calls.clear()
        _scan(text)
        assert calls == text.splitlines()


def test_text_field_lines_are_not_read_as_cif():
    cif = CUBIC_FE_CIF.replace("loop_", "_publ_section_title\n;\n_cell_length_a 9.0\n;\nloop_")
    s = parse_cif(cif)
    assert np.array_equal(s.lattice, np.diag([3.0, 3.0, 3.0]))
    assert s.atomic_numbers.tolist() == [26]


@pytest.mark.parametrize("text", ["data_x\n;\n_cell_length_a 4.0\n", "data_x\n;"])
def test_unterminated_text_field_names_its_line(text):
    with pytest.raises(UnterminatedTextField, match="opened on line 2") as err:
        _scan(text)
    assert err.value.line_number == 2
    assert isinstance(err.value, StructureError)


@pytest.mark.parametrize("old, new, first, line", [
    # FOUND's reproduction: a = 3.0 was read from the second value
    ("_cell_length_a 3.0", "_cell_length_a 7.0\n_cell_length_a 3.0", 2, 3),
    ("_cell_length_c 3.0", "_cell_length_c 3.0\n_CELL_LENGTH_A 3.0", 2, 5),
    ("_atom_site_fract_y", "_atom_site_fract_y\n_atom_site_fract_x", 11, 13),
    ("_atom_site_label", "_atom_site_label\n_cell_angle_beta", 6, 10),
    ("Fe1 Fe 0.0 0.0 0.0", "Fe1 Fe 0.0 0.0 0.0\n_atom_site_label 1", 9, 15)],
    ids=["scalar", "scalar-capitals", "loop-tag", "scalar-as-loop-tag", "loop-tag-as-scalar"])
def test_repeated_data_name_names_both_lines(old, new, first, line):
    # a scalar or a loop tag, whichever comes first, and in any case
    with pytest.raises(RepeatedDataName) as err:
        parse_cif(CUBIC_FE_CIF.replace(old, new))
    assert (err.value.first_line, err.value.line_number) == (first, line)
    assert f"on line {line} repeats line {first}" in str(err.value)
    assert isinstance(err.value, StructureError)


def test_second_data_block_names_its_line():
    with pytest.raises(SecondDataBlock, match="starts on line 15") as err:
        parse_cif(CUBIC_FE_CIF + "data_second\n")
    assert err.value.line_number == 15
    assert isinstance(err.value, StructureError)
    # one data_ line, or none, is one block
    assert parse_cif(CUBIC_FE_CIF.replace("data_fe\n", "")).n_sites == 1


def test_wrap_frac_floor_modulo():
    wrapped = wrap_frac(np.array([[1.25, -0.25, 0.5]]))
    assert wrapped.tolist() == [[0.25, 0.75, 0.5]]
    assert wrap_frac(np.array([[-1e-18, 1.0, 2.0]])).tolist() == [[0.0, 0.0, 0.0]]


def test_structure_invariants():
    with pytest.raises(StructureError):
        CrystalStructure(np.zeros((3, 3)), [[0, 0, 0]], [1])
    with pytest.raises(StructureError):
        CrystalStructure(-np.eye(3), [[0, 0, 0]], [1])
    with pytest.raises(StructureError):
        CrystalStructure(np.eye(3), np.zeros((0, 3)), [])
    with pytest.raises(StructureError):
        CrystalStructure(np.eye(3), [[0, 0, 0]], [200])


def test_cell_parameters_round_trip():
    for seed in range(10):
        gen = np.random.default_rng(seed)
        a, b, c = gen.uniform(2.0, 9.0, size=3)
        alpha, beta, gamma = gen.uniform(60.0, 120.0, size=3)
        try:
            lattice = lattice_from_parameters(a, b, c, alpha, beta, gamma)
        except StructureError:
            continue  # impossible angle combination
        s = CrystalStructure(lattice, [[0.1, 0.2, 0.3]], [6])
        recovered = s.cell_parameters()
        assert np.allclose(recovered, [a, b, c, alpha, beta, gamma], atol=1e-8)


def test_parse_write_round_trip():
    for seed in range(8):
        original = random_structure(seed)
        again = parse_cif(write_cif(original))
        assert np.allclose(again.lattice, original.lattice, atol=1e-10)
        assert np.allclose(again.frac_coords, original.frac_coords, atol=1e-10)
        assert np.array_equal(again.atomic_numbers, original.atomic_numbers)


def test_write_then_parse_preserves_parsed_structure():
    s = parse_cif(CUBIC_FE_CIF)
    again = parse_cif(write_cif(s))
    assert np.allclose(again.lattice, s.lattice, atol=1e-10)
    assert np.allclose(again.frac_coords, s.frac_coords, atol=1e-10)


def test_tokenize_splits_bare_lines_as_the_token_regex():
    # a line without '#', "'" or '"' is split by str.split, which must find the
    # bare words _TOKEN_RE finds: the same whitespace for every code point
    for cp in range(0x110000):
        c = chr(cp)
        if c not in "#'\"" and not 0xD800 <= cp < 0xE000:
            line = f"a{c}b {c}"
            assert _tokenize(line) == _TOKEN_RE.findall(line), hex(cp)


# reference reading of a number: the mantissa and exponent groups of the
# grammar in its first written form, joined as "{mantissa}e{exponent}"
_OLD_NUMBER_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+))(?:[eEdD]([+-]?\d+))?(?:\(\d+\))?")


def old_number(token):
    mantissa, exponent = _OLD_NUMBER_RE.fullmatch(token).groups()
    return float(mantissa if exponent is None else f"{mantissa}e{exponent}")


def random_number(gen, digits="0123456789"):
    """A token of the number grammar: sign, leading or trailing dot,
    e/E/d/D exponent, (n) uncertainty."""
    def run(least):
        return "".join(gen.choice(list(digits), size=int(gen.integers(least, 8))))

    mantissa = [run(1), run(1) + ".", run(1) + "." + run(1), "." + run(1)][gen.integers(4)]
    token = str(gen.choice(["", "+", "-"])) + mantissa
    if gen.random() < 0.5:
        token += str(gen.choice(list("eEdD"))) + str(gen.choice(["", "+", "-"])) + run(1)[:3]
    if gen.random() < 0.3:
        token += f"({run(1)})"
    return token


def site_loop_cif(cells):
    return CUBIC_FE_CIF.split("Fe1 Fe")[0] + "".join(
        f"Fe{k + 1} Fe {' '.join(row)}\n" for k, row in enumerate(cells))


def site_columns(text):
    _, loops = _scan(text)
    return _read_sites(loops[0], 1, [2, 3, 4])


@pytest.mark.parametrize("seed", range(4))
def test_bulk_site_reading_equals_parse_number(seed, monkeypatch):
    gen = np.random.default_rng(seed)
    rows = [[random_number(gen) for _ in range(3)] for _ in range(60)]
    cells = [[f"'{t}'" if gen.random() < 0.2 else t for t in row] for row in rows]
    expected = np.array([[_parse_number(t, 1) for t in row] for row in rows])
    assert expected.tobytes() == np.array([[old_number(t) for t in row]
                                           for row in rows]).tobytes()
    # ASCII digits are read in bulk, without the row-wise _parse_number
    with monkeypatch.context() as patch:
        patch.setattr(structures, "_parse_number", None)
        coords, numbers = site_columns(site_loop_cif(cells))
    assert coords.tobytes() == expected.tobytes()
    assert numbers.dtype == np.int64 and numbers.tolist() == [26] * len(rows)

    # other Unicode digits take the row-wise reading, to the same values
    wide = [[random_number(gen, "0123456789\u0663\uff13") for _ in range(3)] for _ in range(60)]
    expected = np.array([[old_number(t) for t in row] for row in wide])
    assert site_columns(site_loop_cif(wide))[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", list(itertools.permutations((2, 5, 8))))
def test_first_bad_site_row_raises_its_error(rows):
    # a bad number, an unknown element and a short row in three of ten rows:
    # the first of them raises, with the row-wise reading's type and text
    number_row, element_row, short_row = rows
    cells = [["0.1", "0.2", f"0.0{k}"] for k in range(10)]
    cells[number_row][1] = "0.5.5"
    cells[short_row] = cells[short_row][:2]
    text = site_loop_cif(cells).replace(f"Fe{element_row + 1} Fe ", f"Qq{element_row + 1} Qq ")
    line = len(site_loop_cif([]).splitlines()) + min(rows) + 1
    expected = {
        number_row: (MalformedNumber, f"malformed number '0.5.5' on line {line}"),
        element_row: (UnknownElement, "unknown element symbol: 'Qq'"),
        short_row: (StructureError, f"atom site row on line {line} has 4 cells, expected 5"),
    }[min(rows)]
    with pytest.raises(StructureError) as err:
        parse_cif(text)
    assert (type(err.value), str(err.value)) == expected


def test_site_row_checks_width_then_element_then_numbers():
    cells = [["0.1", "0.2", "0.3"], ["0.4", "x", "0.6"]]
    text = site_loop_cif(cells)
    with pytest.raises(MalformedNumber, match="'x' on line 15"):
        parse_cif(text)
    with pytest.raises(UnknownElement, match="'Qq'"):
        parse_cif(text.replace("Fe2 Fe", "Qq2 Qq"))
    with pytest.raises(StructureError, match="line 15 has 6 cells"):
        parse_cif(text.replace("Fe2 Fe", "Qq2 Qq 0.1"))
    with pytest.raises(StructureError, match="no rows"):
        parse_cif(site_loop_cif([]))
