"""Crystal structures and a small CIF reader/writer.

Only P1 (symmetry-expanded) CIFs are accepted: cell parameters, plus an
atom-site loop with fractional coordinates. Anything fancier (symmetry
operations beyond identity, occupancies, disorder) is out of scope.

A CIF is one data block in which each data name appears once; a second
block or a repeated name is refused, naming its line.

The text is scanned in one pass over its lines, each tokenized once. The
site loop is read by column: one regex match and one numpy conversion for
all coordinates. A loop with a bad row is read again row by row, so the
error, and its text, is the first bad row's.
"""

from __future__ import annotations

import math
import re
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .elements import MAX_Z, symbol_to_z, z_to_symbol


class StructureError(Exception):
    """Base class for CIF / structure problems."""


class MissingTag(StructureError):
    def __init__(self, tag: str):
        self.tag = tag
        super().__init__(f"required CIF tag missing: {tag}")


class UnknownElement(StructureError):
    def __init__(self, symbol: str):
        self.symbol = symbol
        super().__init__(f"unknown element symbol: {symbol!r}")


class NonP1Symmetry(StructureError):
    def __init__(self, detail: str):
        super().__init__(f"structure is not in P1: {detail}")


class MalformedNumber(StructureError):
    def __init__(self, line_number: int, token: str):
        self.line_number = line_number
        self.token = token
        super().__init__(f"malformed number {token!r} on line {line_number}")


class UnterminatedTextField(StructureError):
    def __init__(self, line_number: int):
        self.line_number = line_number
        super().__init__(f"text field opened on line {line_number} is never closed")


class RepeatedDataName(StructureError):
    def __init__(self, name: str, first_line: int, line_number: int):
        self.name, self.first_line, self.line_number = name, first_line, line_number
        super().__init__(
            f"data name {name} on line {line_number} repeats line {first_line}")


class SecondDataBlock(StructureError):
    def __init__(self, line_number: int):
        self.line_number = line_number
        super().__init__(f"a second data block starts on line {line_number}; "
                         "a CIF holds one structure")


def decode_utf8(data: bytes, path, error: type[Exception]) -> str:
    """The text of a file read as bytes; a byte that is not UTF-8 raises
    error naming the path and its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end at \r\n, \r or \n, as text mode splits them
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8") from None


def wrap_frac(coords: np.ndarray) -> np.ndarray:
    """Wrap fractional coordinates into [0, 1) with floor-based modulo."""
    coords = np.asarray(coords, dtype=np.float64)
    wrapped = coords - np.floor(coords)
    # coords like -1e-18 wrap to exactly 1.0 in floating point; fold back
    return np.where(wrapped >= 1.0, 0.0, wrapped)


@dataclass
class CrystalStructure:
    """A periodic crystal: lattice rows are the a, b, c vectors in angstroms."""

    lattice: np.ndarray
    frac_coords: np.ndarray
    atomic_numbers: np.ndarray
    id: str = ""

    def __post_init__(self):
        self.lattice = np.asarray(self.lattice, dtype=np.float64)
        self.frac_coords = np.atleast_2d(np.asarray(self.frac_coords, dtype=np.float64))
        self.atomic_numbers = np.asarray(self.atomic_numbers, dtype=np.int64).ravel()
        if self.lattice.shape != (3, 3):
            raise StructureError(f"lattice must be 3x3, got {self.lattice.shape}")
        if not np.isfinite(self.lattice).all():
            raise StructureError("lattice contains non-finite entries")
        if np.linalg.det(self.lattice) <= 0:
            raise StructureError("lattice determinant must be positive")
        if self.frac_coords.shape[0] < 1:
            raise StructureError("structure needs at least one site")
        if self.frac_coords.shape[1] != 3:
            raise StructureError("fractional coordinates must be Nx3")
        if not np.isfinite(self.frac_coords).all():
            raise StructureError("fractional coordinates must be finite")
        if len(self.atomic_numbers) != len(self.frac_coords):
            raise StructureError("site count mismatch between coordinates and species")
        if ((self.atomic_numbers < 1) | (self.atomic_numbers > MAX_Z)).any():
            raise StructureError("atomic numbers must lie in 1..118")
        self.frac_coords = wrap_frac(self.frac_coords)

    @property
    def n_sites(self) -> int:
        return len(self.atomic_numbers)

    @property
    def volume(self) -> float:
        return float(np.linalg.det(self.lattice))

    def cell_parameters(self) -> tuple[float, float, float, float, float, float]:
        """(a, b, c, alpha, beta, gamma) with angles in degrees."""
        a_v, b_v, c_v = self.lattice
        a, b, c = (float(np.linalg.norm(v)) for v in (a_v, b_v, c_v))
        alpha = math.degrees(math.acos(float(np.dot(b_v, c_v)) / (b * c)))
        beta = math.degrees(math.acos(float(np.dot(a_v, c_v)) / (a * c)))
        gamma = math.degrees(math.acos(float(np.dot(a_v, b_v)) / (a * b)))
        return a, b, c, alpha, beta, gamma


def lattice_from_parameters(a: float, b: float, c: float,
                            alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Cell matrix in the standard crystallographic orientation.

    The a vector lies along x and the b vector in the x-y plane; angles are
    in degrees.
    """
    if min(a, b, c) <= 0:
        raise StructureError("cell lengths must be positive")
    for name, ang in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not 0.0 < ang < 180.0:
            raise StructureError(f"cell angle {name}={ang} out of (0, 180)")
    # exact right angles come out exactly orthogonal
    def _cos(x: float) -> float:
        return 0.0 if x == 90.0 else math.cos(math.radians(x))

    ca, cb, cg = (_cos(x) for x in (alpha, beta, gamma))
    sg = 1.0 if gamma == 90.0 else math.sin(math.radians(gamma))
    cx = c * cb
    cy = c * (ca - cb * cg) / sg
    cz_sq = c * c - cx * cx - cy * cy
    if cz_sq <= 0:
        raise StructureError("cell angles do not define a positive-volume cell")
    return np.array([
        [a, 0.0, 0.0],
        [b * cg, b * sg, 0.0],
        [cx, cy, math.sqrt(cz_sq)],
    ])


# a number: mantissa, exponent and a standard uncertainty "(2)", dropped. A
# string matches in one way only, so the joined form fails on a bad number in
# one pass; it takes ASCII digits, and other digits are read row by row
_NUMBER = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eEdD][+-]?\d+)?(?:\(\d+\))?"
_NUMBER_RE = re.compile(_NUMBER)
_NUMBERS_RE = re.compile(rf"{_NUMBER}(?:\n{_NUMBER})*", re.ASCII)
_UNCERTAINTY_RE = re.compile(r"\(\d+\)")
_D_TO_E = str.maketrans("dD", "ee")
# a comment, a quoted string (closed by its quote or the end of the line),
# or a bare word
_TOKEN_RE = re.compile(r"""#.*|'[^']*'?|"[^"]*"?|\S+""")
_SYMBOL_RE = re.compile(r"[A-Za-z]+")

_CELL_TAGS = (
    "_cell_length_a", "_cell_length_b", "_cell_length_c",
    "_cell_angle_alpha", "_cell_angle_beta", "_cell_angle_gamma",
)

_SYMOP_TAGS = ("_symmetry_equiv_pos_as_xyz", "_space_group_symop_operation_xyz")
_SPACEGROUP_NAME_TAGS = ("_symmetry_space_group_name_h-m", "_space_group_name_h-m_alt")
_SPACEGROUP_NUMBER_TAGS = ("_symmetry_int_tables_number", "_space_group_it_number")


def _parse_number(token: str, line_number: int) -> float:
    if _NUMBER_RE.fullmatch(token) is None:
        raise MalformedNumber(line_number, token)
    return float(_UNCERTAINTY_RE.sub("", token).translate(_D_TO_E))


def _tokenize(line: str) -> list[str]:
    if "#" not in line and "'" not in line and '"' not in line:
        return line.split()  # the bare words _TOKEN_RE finds
    tokens = []
    for token in _TOKEN_RE.findall(line):
        head = token[0]
        if head == "#":
            break
        if head in "'\"":
            # a closed quote ends with its own character; an unclosed one runs
            # to the end of the line and cannot
            token = token[1:-1] if len(token) > 1 and token[-1] == head else token[1:]
        tokens.append(token)
    return tokens


@dataclass
class _Loop:
    tags: list[str] = field(default_factory=list)
    rows: list[tuple[int, list[str]]] = field(default_factory=list)


def _scan(text: str) -> tuple[dict[str, tuple[int, str]], list[_Loop]]:
    """Scalars (tag -> (line number, value)) and loops of a CIF, read in one
    pass over its lines, each tokenized once.

    A line whose first character is ';' opens a text field, and the next such
    line closes it. The field is one value, the text from after the opening
    ';' to the end of the line before the closing one, and its lines are not
    read as CIF. At the top level it is the value of a directly preceding
    tag that had none (blank and comment lines between them aside); in a
    loop it is one cell, a row of its own at the opening line. What follows
    the closing ';' is read as a line of its own. A field left open raises
    UnterminatedTextField.

    As CIF 1.1 requires, a data name, scalar or loop tag, appears once: a
    repeat raises RepeatedDataName. A CIF is one data block: a second
    data_ line raises SecondDataBlock."""
    scalars: dict[str, tuple[int, str]] = {}
    loops: list[_Loop] = []
    # the line of every data name, scalar or loop tag; a line names at most
    # one, so a name already on an earlier line is a repeat
    names: dict[str, int] = {}
    loop, tagging, bare, block = None, False, None, False
    # a text field needs a ';', and testing each line for one costs a tenth
    # of a scan
    fields = ";" in text
    lines = enumerate(text.splitlines(), start=1)
    for number, line in lines:
        if fields and line[:1] == ";":
            opened, body = number, [line[1:]]
            for number, line in lines:
                if line[:1] == ";":
                    break
                body.append(line)
            else:
                raise UnterminatedTextField(opened)
            value = "\n".join(body)
            if loop is not None:
                loop.rows.append((opened, [value]))
            elif bare is not None:
                scalars[bare] = (scalars[bare][0], value)
            tagging, bare, line = False, None, line[1:]
        tokens = _tokenize(line)
        if tagging and len(tokens) == 1 and tokens[0].startswith("_"):
            tag = tokens[0].lower()
            if names.setdefault(tag, number) != number:
                raise RepeatedDataName(tag, names[tag], number)
            loop.tags.append(tag)
            continue
        tagging = False
        if not tokens:
            continue
        head = tokens[0]
        low = head.lower()
        bare = None
        if low == "loop_":
            loop, tagging = _Loop(), True
            loops.append(loop)
        elif head.startswith("_"):
            loop = None
            if names.setdefault(low, number) != number:
                raise RepeatedDataName(low, names[low], number)
            scalars[low] = (number, tokens[1] if len(tokens) > 1 else "")
            if len(tokens) == 1:
                bare = low
        elif low.startswith("data_"):
            if block:
                raise SecondDataBlock(number)
            loop, block = None, True
        elif loop is not None:
            loop.rows.append((number, tokens))
    return scalars, loops


def _is_identity_symop(cell: str) -> bool:
    body = cell.lower().replace(" ", "").replace("+", "")
    # drop a leading operation index like "1x,y,z"
    body = re.sub(r"^\d+(?=[xyz-])", "", body)
    return body == "x,y,z"


def _check_p1(scalars, loops) -> None:
    for tag in _SPACEGROUP_NAME_TAGS:
        if tag in scalars:
            name = scalars[tag][1].replace(" ", "").lower()
            if name not in ("p1", ""):
                raise NonP1Symmetry(f"space group {scalars[tag][1]!r}")
    for tag in _SPACEGROUP_NUMBER_TAGS:
        if tag in scalars:
            line, token = scalars[tag]
            if _parse_number(token, line) != 1:
                raise NonP1Symmetry(f"space group number {token}")
    for loop in loops:
        for symtag in _SYMOP_TAGS:
            if symtag in loop.tags:
                col = loop.tags.index(symtag)
                ops = [row[col] for _, row in loop.rows if len(row) > col]
                non_identity = [op for op in ops if not _is_identity_symop(op)]
                if non_identity:
                    raise NonP1Symmetry(f"symmetry operation {non_identity[0]!r}")


def _element_from_token(token: str) -> int:
    m = _SYMBOL_RE.match(token)
    if m is None:
        raise UnknownElement(token)
    symbol = m.group(0)
    z = symbol_to_z(symbol)
    if z is None:
        raise UnknownElement(symbol)
    return z


def _read_sites(loop: _Loop, sym_col: int, cols: list[int]):
    """(coordinates, atomic numbers) of a site loop: column by column (one
    match over all numbers, one lookup per symbol) if every row passes its
    checks, else row by row, raising the first bad row's first error."""
    rows = [row for _, row in loop.rows]
    if set(map(len, rows)) == {len(loop.tags)}:
        cells = "\n".join([row[c] for row in rows for c in cols])
        if _NUMBERS_RE.fullmatch(cells):
            with suppress(UnknownElement):
                z_of = {token: _element_from_token(token)
                        for token in {row[sym_col] for row in rows}}
                # numpy converts each string with float(), as _parse_number does
                cells = _UNCERTAINTY_RE.sub("", cells).translate(_D_TO_E).split("\n")
                return (np.array(cells, dtype=np.float64).reshape(-1, 3),
                        np.array([z_of[row[sym_col]] for row in rows]))
    coords, numbers = [], []
    for line, row in loop.rows:
        if len(row) != len(loop.tags):
            raise StructureError(
                f"atom site row on line {line} has {len(row)} cells, "
                f"expected {len(loop.tags)}")
        numbers.append(_element_from_token(row[sym_col]))
        coords.append([_parse_number(row[c], line) for c in cols])
    if not coords:
        raise StructureError("atom site loop has no rows")
    return np.array(coords), np.array(numbers)


def parse_cif(text: str) -> CrystalStructure:
    """Parse a P1 CIF with cell parameters and a fractional atom-site loop."""
    scalars, loops = _scan(text)
    _check_p1(scalars, loops)

    params = []
    for tag in _CELL_TAGS:
        if tag not in scalars:
            raise MissingTag(tag)
        line, token = scalars[tag]
        params.append(_parse_number(token, line))
    lattice = lattice_from_parameters(*params)

    site_loop = None
    for loop in loops:
        if "_atom_site_fract_x" in loop.tags:
            site_loop = loop
            break
    if site_loop is None:
        raise MissingTag("_atom_site_fract_x")
    for tag in ("_atom_site_fract_y", "_atom_site_fract_z"):
        if tag not in site_loop.tags:
            raise MissingTag(tag)
    if "_atom_site_type_symbol" in site_loop.tags:
        sym_col = site_loop.tags.index("_atom_site_type_symbol")
    elif "_atom_site_label" in site_loop.tags:
        sym_col = site_loop.tags.index("_atom_site_label")
    else:
        raise MissingTag("_atom_site_type_symbol")
    cols = [site_loop.tags.index(f"_atom_site_fract_{ax}") for ax in "xyz"]

    name = scalars.get("_chemical_name_common", (0, ""))[1] or scalars.get(
        "_chemical_formula_sum", (0, ""))[1]
    return CrystalStructure(lattice, *_read_sites(site_loop, sym_col, cols), id=name)


def write_cif(structure: CrystalStructure, id: str | None = None) -> str:
    """Serialize a structure back to the CIF subset parse_cif reads.

    The lattice is written as cell parameters, so a re-parse reproduces it in
    the standard orientation (a along x, b in the x-y plane).
    """
    a, b, c, alpha, beta, gamma = structure.cell_parameters()
    name = id if id is not None else (structure.id or "crystal")
    lines = [
        f"data_{name}",
        f"_chemical_name_common '{name}'",
        f"_cell_length_a {a!r}",
        f"_cell_length_b {b!r}",
        f"_cell_length_c {c!r}",
        f"_cell_angle_alpha {alpha!r}",
        f"_cell_angle_beta {beta!r}",
        f"_cell_angle_gamma {gamma!r}",
        "_symmetry_space_group_name_H-M 'P 1'",
        "loop_",
        "_atom_site_label",
        "_atom_site_type_symbol",
        "_atom_site_fract_x",
        "_atom_site_fract_y",
        "_atom_site_fract_z",
    ]
    for k, (frac, z) in enumerate(zip(structure.frac_coords, structure.atomic_numbers)):
        sym = z_to_symbol(int(z))
        x, y, w = (float(v) for v in frac)
        lines.append(f"{sym}{k + 1} {sym} {x!r} {y!r} {w!r}")
    return "\n".join(lines) + "\n"
