"""The document format: one JSON schema for every object the CLI handles.

All integers are written as decimal strings and rationals as "p/q" strings,
so numbers of any size round-trip exactly.  Sections: complex, sheaf, affine,
polytope, classes; a document carries any subset, and its "format" field
must read "torusbase/1".
"""

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .affine import AffineSurface, EdgeTransition, SingularityMark
from .complexes import CellComplex, cell_key
from .errors import TorusbaseError
from .exact import zeros
from .polytopes import LatticePolytope
from .sheaves import CellularSheaf, Stalk


FORMAT = "torusbase/1"


class DocumentError(TorusbaseError):
    pass


def _enc_int(x):
    return str(int(x))


def _enc_frac(x):
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def _dec_int(s):
    s = str(s).strip()
    if not (s.lstrip("+-").isdigit()):
        raise DocumentError("not an integer: %r" % (s,))
    return int(s)


def _dec_frac(s):
    s = str(s).strip()
    num, slash, den = s.partition("/")
    try:
        if slash:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        raise DocumentError("not a rational number: %r" % (s,))


def _enc_cell(c):
    if isinstance(c, tuple):
        return ["t"] + [_enc_cell(x) for x in c]
    if isinstance(c, str):
        return c
    if isinstance(c, int):
        return ["i", str(c)]
    raise DocumentError("cell id %r cannot be serialized" % (c,))


def _dec_cell(c):
    if isinstance(c, str):
        return c
    if isinstance(c, list) and c and c[0] == "t":
        return tuple(_dec_cell(x) for x in c[1:])
    if isinstance(c, list) and c and c[0] == "i":
        return int(c[1])
    raise DocumentError("malformed cell id %r" % (c,))


def _enc_matrix(M, frac=False):
    enc = _enc_frac if frac else _enc_int
    return [[enc(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]


def _dec_matrix(rows, ring="Z", shape=None):
    dec = _dec_frac if ring == "Q" else _dec_int
    vals = [[dec(x) for x in r] for r in rows]
    m = len(vals)
    n = len(vals[0]) if vals else 0
    if any(len(r) != n for r in vals):
        raise DocumentError("ragged matrix %s" % (rows,))
    if shape is not None and (m, n) != shape:
        raise DocumentError("matrix %s is not %dx%d" % (rows, shape[0], shape[1]))
    out = zeros(m, n, ring)
    for i, r in enumerate(vals):
        for j, x in enumerate(r):
            out[i, j] = x
    return out


def _by_cell(d):
    """The items of d in the cell order of its keys (complexes.cell_key)."""
    return sorted(d.items(), key=lambda p: cell_key(p[0]))


class _Encoder:
    """The section encoders of one document.  Each distinct cell id is
    encoded once, and every place that names the cell holds that one list,
    which dumps then renders once per depth."""

    def __init__(self):
        self._cells = {}

    def cell(self, c):
        enc = self._cells.get(c)
        if enc is None:
            enc = self._cells[c] = _enc_cell(c)
        return enc

    def complex(self, X):
        cell = self.cell
        return {
            "cells": [[cell(c), d] for c, d in _by_cell(X.cells)],
            "incidence": [
                [cell(a), cell(b), _enc_int(v)] for (a, b), v in _by_cell(X.incidence)
            ],
            "boundary_words": [
                [cell(f), [[cell(e), _enc_int(s)] for e, s in w]]
                for f, w in _by_cell(X.boundary_words)
            ],
        }

    def sheaf(self, F):
        cell = self.cell
        return {
            "ring": F.ring,
            "stalks": [
                [cell(c), s.rank, [_enc_int(m) for m in s.moduli]]
                for c, s in _by_cell(F.stalks)
            ],
            "restrictions": [
                [cell(a), cell(b), _enc_matrix(M, F.ring == "Q")]
                for (a, b), M in _by_cell(F.restrictions)
            ],
        }

    def affine(self, S):
        cell = self.cell
        charts = [
            [cell(f), [[cell(v), [_enc_frac(p[0]), _enc_frac(p[1])]] for v, p in _by_cell(ch)]]
            for f, ch in _by_cell(S.charts)
        ]
        transitions = [
            [
                cell(e),
                cell(tr.from_face),
                cell(tr.to_face),
                _enc_matrix(tr.A),
                [_enc_frac(tr.t[0]), _enc_frac(tr.t[1])],
            ]
            for e, tr in _by_cell(S.transitions)
        ]
        markings = [[cell(c), m.kind, m.k] for c, m in _by_cell(S.markings)]
        chern = [
            [cell(f), [_enc_int(v[0]), _enc_int(v[1])]] for f, v in _by_cell(S.chern_cocycle)
        ]
        return {"charts": charts, "transitions": transitions, "markings": markings, "chern": chern}

    def classes(self, classes):
        out = []
        for name, cls in sorted(classes.items()):
            enc = _enc_frac if cls.sheaf.ring == "Q" else _enc_int
            comps = []
            for c in cls.sheaf.cochain_cells(cls.degree):
                vals = cls.component(c)
                if any(v != 0 for v in vals):
                    comps.append([self.cell(c), [enc(v) for v in vals]])
            out.append([name, cls.degree, comps])
        return out


class _Decoder:
    """The section decoders of one document.  Each distinct raw cell id is
    decoded once: the memo is keyed by repr, which is one-to-one on the
    values json.loads returns, and holds only ids that decoded, so a
    malformed id reaches _dec_cell every time."""

    def __init__(self):
        self._cells = {}

    def cell(self, c):
        key = repr(c)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _dec_cell(c)
        return cell

    def ref(self, c, base, what):
        """The cell id c, which must name a cell of the complex base."""
        cell = self.cell(c)
        if cell not in base.cells:
            raise DocumentError("%s names %r, which is not a cell of the complex" % (what, cell))
        return cell

    def complex(self, doc):
        cell = self.cell
        cells = {cell(c): int(d) for c, d in doc["cells"]}
        incidence = {(cell(a), cell(b)): _dec_int(v) for a, b, v in doc["incidence"]}
        words = {}
        for f, w in doc.get("boundary_words", []):
            words[cell(f)] = tuple((cell(e), _dec_int(s)) for e, s in w)
        return CellComplex(cells=cells, incidence=incidence, boundary_words=words)

    def sheaf(self, doc, base):
        ring = doc["ring"]
        if ring not in ("Z", "Q"):
            raise DocumentError("unknown ring %r" % (ring,))
        stalks = {}
        for item in doc["stalks"]:
            c, rank = self.ref(item[0], base, "a sheaf stalk"), int(item[1])
            if rank < 0:
                raise DocumentError("the stalk at %r has negative rank %d" % (c, rank))
            moduli = tuple(_dec_int(m) for m in item[2]) if len(item) > 2 else ()
            stalks[c] = Stalk(rank, moduli)
        restrictions = {}
        for a, b, M in doc["restrictions"]:
            pair = tuple(self.ref(c, base, "a sheaf restriction") for c in (a, b))
            restrictions[pair] = _dec_matrix(M, ring)
        return CellularSheaf(base, ring, stalks, restrictions)

    def affine(self, doc, base):
        ref = self.ref
        charts = {}
        for f, ch in doc["charts"]:
            charts[ref(f, base, "an affine chart")] = {
                ref(v, base, "an affine chart"): _dec_pair(p, _dec_frac) for v, p in ch
            }
        transitions = {}
        for item in doc["transitions"]:
            e, fa, fb, A, t = item
            transitions[ref(e, base, "an affine transition")] = EdgeTransition(
                ref(fa, base, "an affine transition"),
                ref(fb, base, "an affine transition"),
                _dec_matrix(A, "Z", shape=(2, 2)),
                np.array(_dec_pair(t, _dec_frac), dtype=object),
            )
        markings = {}
        for c, kind, k in doc.get("markings", []):
            markings[ref(c, base, "an affine marking")] = SingularityMark(kind, int(k))
        chern = {}
        for f, v in doc.get("chern", []):
            chern[ref(f, base, "an affine chern entry")] = _dec_pair(v, _dec_int)
        return AffineSurface(
            base=base, charts=charts, transitions=transitions, markings=markings,
            chern_cocycle=chern,
        )

    def classes(self, doc, sheaf):
        from .sheaves import class_from_components

        out = {}
        for name, degree, comps in doc:
            dec = _dec_frac if sheaf.ring == "Q" else _dec_int
            components = {self.cell(c): [dec(v) for v in vals] for c, vals in comps}
            out[name] = class_from_components(sheaf, int(degree), components)
        return out


def _dec_pair(v, dec):
    """The two entries of the list v, each decoded by dec."""
    if not isinstance(v, list) or len(v) != 2:
        raise DocumentError("expected two entries, got %s" % (v,))
    return dec(v[0]), dec(v[1])


def encode_polytope(P):
    return {
        "dimension": P.dimension,
        "halfspaces": [
            [[_enc_int(x) for x in a], _enc_frac(b)] for a, b in P.halfspaces
        ],
    }


def decode_polytope(doc):
    hs = [
        (tuple(_dec_int(x) for x in a), _dec_frac(b)) for a, b in doc["halfspaces"]
    ]
    return LatticePolytope(int(doc["dimension"]), hs)


def encode_document(complex=None, sheaf=None, affine=None, polytope=None, classes=None):
    enc = _Encoder()
    doc = {"format": FORMAT}
    if complex is not None:
        doc["complex"] = enc.complex(complex)
    if sheaf is not None:
        doc["sheaf"] = enc.sheaf(sheaf)
    if affine is not None:
        doc["affine"] = enc.affine(affine)
    if polytope is not None:
        doc["polytope"] = encode_polytope(polytope)
    if classes is not None:
        doc["classes"] = enc.classes(classes)
    return doc


def _decode_section(raw, key, decode, *args):
    """decode(raw[key], *args), where a missing key or a wrongly typed value
    inside the section raises DocumentError.  The library's own errors,
    ValueError subclasses such as AffineError, pass through unchanged."""
    try:
        return decode(raw[key], *args)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as err:
        if isinstance(err, ValueError) and type(err) is not ValueError:
            raise
        detail = "missing key %s" % err if isinstance(err, KeyError) else str(err)
        raise DocumentError("malformed %s section: %s" % (key, detail)) from None


class Document:
    def __init__(self, raw):
        self.raw = raw
        self._decoder = dec = _Decoder()
        self.complex = None
        self.affine = None
        self.sheaf = None
        self.polytope = None
        if "complex" in raw:
            self.complex = _decode_section(raw, "complex", dec.complex)
        if "affine" in raw:
            if self.complex is None:
                raise DocumentError("affine section requires a complex section")
            self.affine = _decode_section(raw, "affine", dec.affine, self.complex)
        if "sheaf" in raw:
            if self.complex is None:
                raise DocumentError("sheaf section requires a complex section")
            self.sheaf = _decode_section(raw, "sheaf", dec.sheaf, self.complex)
        if "polytope" in raw:
            self.polytope = _decode_section(raw, "polytope", decode_polytope)

    def classes(self, sheaf):
        if "classes" not in self.raw:
            return {}
        return _decode_section(self.raw, "classes", self._decoder.classes, sheaf)


def loads(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(
            "parse error at line %d column %d: %s" % (err.lineno, err.colno, err.msg)
        )
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    if raw.get("format") != FORMAT:
        raise DocumentError("document format must be %r, got %r" % (FORMAT, raw.get("format")))
    return Document(raw)


def dumps(doc_dict):
    """The document as text, exactly json.dumps(doc_dict, indent=1,
    sort_keys=True); with indent, json runs its pure-Python encoder, one
    generator step per token, so the text is built here.  A list is rendered
    once per indent: by identity (encode_document shares each cell id's
    list), and a list of strings also by content (matrix rows, points).  The
    document must be a tree of str keys and JSON values."""
    lists = {}  # (indent, id or strings of a list) -> its text, for this call

    def write(o, ind):
        if isinstance(o, str):
            return _string(o)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            strings = all(type(x) is str for x in o)
            key = (ind, tuple(o) if strings else id(o))
            text = lists.get(key)
            if text is None:
                sub = ind + " "
                items = map(_string, o) if strings else [
                    _string(x) if type(x) is str else write(x, sub) for x in o
                ]
                text = lists[key] = "[" + sub + ("," + sub).join(items) + ind + "]"
            return text
        if isinstance(o, dict):
            if not o:
                return "{}"
            sub = ind + " "
            items = [_string(k) + ": " + write(v, sub) for k, v in sorted(o.items())]
            return "{" + sub + ("," + sub).join(items) + ind + "}"
        return _scalar(o)

    return write(doc_dict, "\n")


def _scalar(o):
    """A JSON number, true, false or null, as json.dumps writes it."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
