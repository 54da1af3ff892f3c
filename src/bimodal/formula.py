"""Bimodal formula ASTs, canonical text syntax, and bit-vector macro expanders.

Formulas are built from five core shapes: atoms, negation, binary
conjunction, and the two box-type modalities K and [].  Each connective
has one constructor, which the generators, the translations and the
parser all call.  The derived ones (disjunction, implication,
equivalence, L, <>) are built from the core constructors, so the model
checker only ever sees the five core shapes.

Nodes are interned: structurally equal formulas are the same object, which
makes equality and hashing O(1) even for very large generated formulas.
Each connective has one intern table keyed by the operands, so finding a
node is one lookup.  A node's operands are checked to be formulas once,
when the node is first built; a node found in a table has passed that
check.  Each node also carries the length of its canonical text, summed
from its children's when it is built.  The units T and F are built once.

Generated formulas are small DAGs with large texts, so both directions of
the text syntax work per shared subformula rather than per occurrence.
`render` joins the text of a long subformula once, when it occurs a second
time, and copies that string for every later occurrence; `render_all`
does the same across several formulas in one walk.  `parse` scans
tokens with one compiled regular expression, one match per token, skipping
whitespace between them; when a parenthesized span repeats the text of one
already parsed in the same call, it takes that span's formula and resumes
after the closing parenthesis.  A lexical error is still reported ahead of
any grammar error: before a grammar error is raised, the rest of the text
is scanned for one (a reused span is a copy of text already scanned).
"""

import re
from functools import cache

ATOM = "atom"
NOT = "not"
AND = "and"
KMOD = "K"
BOXMOD = "box"

# The text in front of a unary node's operand.
_PREFIX_TEXT = {NOT: "!", KMOD: "K", BOXMOD: "[]"}


class Formula:
    """Immutable, interned formula node.

    kind is one of "atom", "not", "and", "K", "box".  Atoms carry their
    index in `value`; unary nodes use `left`; "and" uses `left` and `right`.
    `size` is the length of the node's canonical text.
    """

    __slots__ = ("kind", "value", "left", "right", "size")

    def __repr__(self):
        if self.size <= 120:
            return f"Formula({render(self)})"
        return f"Formula({_text_prefix(self, 117)}...)"


# One intern table per connective, keyed by the node's operands.
_atoms, _nots, _ands, _ks, _boxes = {}, {}, {}, {}, {}


def _new(table, key, kind, value, left, right):
    # the operands of an interned node are formulas: check only new ones
    if kind == ATOM:
        size = 1 + max(value.bit_length(), 1)
    elif kind == AND:
        size = _check(left).size + _check(right).size + 5  # "(", " & ", ")"
    else:
        size = len(_PREFIX_TEXT[kind]) + _check(left).size
    node = object.__new__(Formula)
    node.kind = kind
    node.value = value
    node.left = left
    node.right = right
    node.size = size
    table[key] = node
    return node


def Atom(i):
    # checked before the lookup: True == 1, so Atom(True) would find Atom(1)
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise ValueError(f"atom index must be a natural number, got {i!r}")
    return _atoms.get(i) or _new(_atoms, i, ATOM, i, None, None)


# KeyError: a new node; TypeError: an unhashable operand, which _new names.
def Not(f):
    try:
        return _nots[f]
    except (KeyError, TypeError):
        return _new(_nots, f, NOT, None, f, None)


def And(a, b):
    try:
        return _ands[a, b]
    except (KeyError, TypeError):
        return _new(_ands, (a, b), AND, None, a, b)


def K(f):
    try:
        return _ks[f]
    except (KeyError, TypeError):
        return _new(_ks, f, KMOD, None, f, None)


def Box(f):
    try:
        return _boxes[f]
    except (KeyError, TypeError):
        return _new(_boxes, f, BOXMOD, None, f, None)


def Or(a, b):
    return Not(And(Not(a), Not(b)))


def Implies(a, b):
    return Not(And(a, Not(b)))


def Iff(a, b):
    return And(Implies(a, b), Implies(b, a))


def L(f):
    return Not(K(Not(f)))


def Diamond(f):
    return Not(Box(Not(f)))


def _check(f):
    if not isinstance(f, Formula):
        raise TypeError(f"expected Formula, got {type(f).__name__}")
    return f


def true_formula():
    """Canonical always-true formula: !(x0 & !x0)."""
    return _TRUE


def false_formula():
    """Canonical always-false formula: (x0 & !x0)."""
    return _FALSE


# ---------------------------------------------------------------------------
# Traversal helpers.  The evaluator, the relativizer, `subformulas` and
# `atoms` all walk `postorder`: iterative, because generated formulas nest
# too deeply for Python recursion, and computed once per formula.

def postorder(f):
    """The distinct subformulas of f as a tuple, each after its operands,
    with f last."""
    return _postorder(_check(f))


# Keyed by node identity; the intern table keeps every node alive anyway.
@cache
def _postorder(f):
    done = {}  # in insertion order, each node after its operands
    stack = [f]  # a path down from f, so no node is on it twice
    while stack:
        t = stack[-1]
        if t.left is not None and t.left not in done:
            stack.append(t.left)
        elif t.right is not None and t.right not in done:
            stack.append(t.right)
        else:
            done[t] = None
            stack.pop()
    return tuple(done)


def subformulas(f):
    """All distinct subformulas of f, including f itself."""
    return set(postorder(f))


def atoms(f):
    """Set of atom indices occurring in f."""
    return {t.value for t in postorder(f) if t.kind == ATOM}


# ---------------------------------------------------------------------------
# Canonical text syntax.

# Texts at least this long are reused: render joins such a subformula's text
# once it occurs again, and parse looks up parenthesized spans by their
# first this many characters.  Shorter texts cost less to redo than to look up.
_REUSE_MIN = 32


def render(f):
    """Canonical text for f.  parse(render(f)) == f."""
    return next(render_all([f]))


def render_all(formulas):
    """Yield the canonical texts of formulas, in one walk: a long
    subformula's text is joined once for all of them."""
    out = []
    # long node -> (start, end) of its first text in out; its joined text
    # from its second occurrence on
    texts = {}
    for f in formulas:
        start = len(out)
        reuse = _check(f).size >= _REUSE_MIN  # else no node of f is long
        stack = [f]
        while stack:
            t = stack.pop()
            if t.__class__ is str:
                out.append(t)
                continue
            if t.__class__ is tuple:  # the end of a long node's first text
                texts[t[0]] = (t[1], len(out))
                continue
            if reuse and t.size >= _REUSE_MIN:
                got = texts.get(t)
                if got is not None:
                    if got.__class__ is tuple:
                        got = texts[t] = "".join(out[got[0]:got[1]])
                    out.append(got)
                    continue
                stack.append((t, len(out)))
            kind = t.kind
            if kind == ATOM:
                out.append("x" + format(t.value, "b"))
            elif kind == AND:
                out.append("(")
                stack.extend([")", t.right, " & ", t.left])
            else:
                out.append(_PREFIX_TEXT[kind])
                stack.append(t.left)
        yield "".join(out[start:])


def _text_prefix(f, n):
    """The first n characters of the canonical text of f, which is longer:
    the walk of `render` without reuse, stopped once they are out."""
    out = []
    stack = [f]
    while n > 0:
        t = stack.pop()
        if t.__class__ is not str:
            if t.kind == ATOM:
                t = "x" + format(t.value, "b")
            elif t.kind == AND:
                stack.extend([")", t.right, " & ", t.left])
                t = "("
            else:
                stack.append(t.left)
                t = _PREFIX_TEXT[t.kind]
        out.append(t[:n])
        n -= len(t)
    return "".join(out)


def rendered_size(f):
    """Symbol count of the canonical text of f, read off the node without
    building the text."""
    return _check(f).size


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# One match per token, after any whitespace: a token of the syntax (an atom
# or a symbol), a bare x, or any other character; the last two are errors.
_TOKEN = re.compile(r"\s*(?:(x[01]+|<->|->|\[\]|<>|[()&|!KLTF])|(x)|(\S))")
_CONSTANTS = {"T": true_formula, "F": false_formula}
_PREFIX_BUILDERS = {"!": Not, "K": K, "[]": Box, "L": L, "<>": Diamond}
_BINOP_BUILDERS = {"&": And, "|": Or, "->": Implies, "<->": Iff}


def _lexical_error(m):
    """The error for a match of _TOKEN that is not a token."""
    if m.lastindex == 2:
        return ParseError("atom symbol x must be followed by a binary numeral",
                          m.start(2))
    return ParseError(f"unexpected character {m[3]!r}", m.start(3))


# A left-nested chain opens with a run of parentheses as long as the chain:
# a key that the run fills runs on past it, so each link gets a key of its own.
_PAREN_RUN = re.compile(rb"\(*")
_PARENS = b"(" * _REUSE_MIN


def _span_key(data, off):
    key = data[off:off + _REUSE_MIN]
    if key == _PARENS:
        key = data[off:_PAREN_RUN.match(data, off).end() + _REUSE_MIN]
    return key


def _repeated_span(spans, data, off):
    """(length, formula) of the span recorded under the key at off if its
    text recurs there, or None: one comparison, in place."""
    got = spans.get(_span_key(data, off))
    if got is not None:
        start, end, value = got
        if data.startswith(memoryview(data)[start:end], off):
            return end - start, value
    return None


def parse(text):
    """Parse canonical text (plus sugar L, <>, |, ->, <->, T, F) into a Formula."""
    match = _TOKEN.match
    pos = 0  # where the next token's match starts
    # Frame: [left, op, right, pending_prefixes, open_offset]
    frames = [[None, None, None, [], 0]]
    # key -> (start, end, formula) of the first parsed parenthesized span
    # with that key, as offsets into the ASCII encoding of the text; other
    # texts are parsed without reuse
    spans = {}
    data = text.encode("ascii") if text.isascii() else None

    def error(message, off):
        # a lexical error in the text not yet scanned comes first
        for m in _TOKEN.finditer(text, pos):
            if m.lastindex != 1:
                return _lexical_error(m)
        return ParseError(message, off)

    def settle(value, off):
        fr = frames[-1]
        for p in reversed(fr[3]):
            value = _PREFIX_BUILDERS[p](value)
        fr[3] = []
        if fr[0] is None:
            fr[0] = value
        elif fr[2] is None:
            fr[2] = value
        else:
            raise error("expected a closing parenthesis", off)

    # only whitespace is left when no match is found
    while m := match(text, pos):
        tok = m[1]
        if tok is None:
            raise _lexical_error(m)
        off = m.start(1)
        pos = m.end()
        fr = frames[-1]
        if tok in _BINOP_BUILDERS:
            if fr[0] is None or fr[3]:
                raise error("operator with no left operand", off)
            if fr[1] is not None and fr[2] is None:
                raise error("operand expected before second operator", off)
            if fr[1] is not None:
                raise error("chained operators require parentheses", off)
            if len(frames) == 1:
                raise error("binary operators require parentheses", off)
            fr[1] = tok
        elif tok == ")":
            if len(frames) == 1:
                raise error("unmatched closing parenthesis", off)
            if fr[0] is None or fr[3]:
                raise error("empty or incomplete parenthesized formula", off)
            if fr[1] is not None and fr[2] is None:
                raise error("operator missing its right operand", off)
            combined = fr[0]
            if fr[1] is not None:
                combined = _BINOP_BUILDERS[fr[1]](fr[0], fr[2])
            frames.pop()
            start = fr[4]
            if pos - start >= _REUSE_MIN and data is not None:
                spans.setdefault(_span_key(data, start), (start, pos, combined))
            settle(combined, off)
        # the rest start an operand, which must not follow a complete one
        elif fr[0] is not None and fr[1] is None:
            raise error("expected an operator or closing parenthesis", off)
        elif tok == "(":
            repeat = spans and _repeated_span(spans, data, off)
            if repeat:  # it parses the same way here: skip past it
                length, value = repeat
                pos = off + length
                settle(value, pos - 1)
            else:
                frames.append([None, None, None, [], off])
        elif tok in _PREFIX_BUILDERS:
            fr[3].append(tok)
        elif tok in _CONSTANTS:
            settle(_CONSTANTS[tok](), off)
        else:
            i = int(tok[1:], 2)
            settle(_atoms.get(i) or _new(_atoms, i, ATOM, i, None, None), off)

    if len(frames) != 1:
        raise ParseError("unclosed parenthesis", frames[-1][4])
    # the outer frame never takes an operator, so it holds a formula or less
    fr = frames[0]
    if fr[0] is None or fr[3]:
        raise ParseError("incomplete formula", len(text))
    return fr[0]


# ---------------------------------------------------------------------------
# Bit helpers.

class FormulaVector:
    """A vector F of formulas standing for a binary number.

    Entries are given most-significant-first (F_{l-1}, ..., F_0);
    bit(k) returns the formula at bit position k, so bit(0) is the least
    significant entry.
    """

    __slots__ = ("entries",)

    def __init__(self, entries_msb_first):
        entries = tuple(entries_msb_first)
        if len(entries) < 1:
            raise ValueError("formula vector must have at least one entry")
        for e in entries:
            _check(e)
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def bit(self, k):
        if not 0 <= k < len(self.entries):
            raise ValueError(f"bit index {k} out of range for length {len(self.entries)}")
        return self.entries[len(self.entries) - 1 - k]

    @classmethod
    def of_atoms(cls, ids_msb_first):
        return cls([Atom(i) for i in ids_msb_first])


# ---------------------------------------------------------------------------
# Deterministic conjunction/disjunction folding.  The canonical TRUE/FALSE
# units are dropped when other parts are present, so emitted formulas carry
# no vacuous conjuncts.  The units are built once, here.
_FALSE = And(Atom(0), Not(Atom(0)))
_TRUE = Not(_FALSE)


def conj(parts):
    parts = [p for p in parts if p is not _TRUE]
    if not parts:
        return _TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts):
    parts = [p for p in parts if p is not _FALSE]
    if not parts:
        return _FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# ---------------------------------------------------------------------------
# Bit-vector macros: equality, comparison, successor, rightmost-bit,
# uniqueness, and persistence gadgets over formula vectors.

def _same_length(F, G):
    if len(F) != len(G):
        raise ValueError(f"vector length mismatch: {len(F)} vs {len(G)}")
    return len(F)


def eq_vector(F, G, k=-1):
    """Bits above position k agree: AND_{h=k+1..l-1} (F_h <-> G_h)."""
    l = _same_length(F, G)
    if not -1 <= k <= l - 1:
        raise ValueError(f"threshold {k} out of range for length {l}")
    return conj([Iff(F.bit(h), G.bit(h)) for h in range(l - 1, k, -1)])


def eq_binary(F, i):
    """F encodes exactly the number i."""
    l = len(F)
    if not 0 <= i < 2 ** l:
        raise ValueError(f"{i} is not representable in {l} bits")
    return conj([F.bit(h) if (i >> h) & 1 else Not(F.bit(h))
                 for h in range(l - 1, -1, -1)])


def rightmost_zero(F, k):
    """Position k holds the lowest zero of F."""
    return conj([Not(F.bit(k))] + [F.bit(h) for h in range(k - 1, -1, -1)])


def rightmost_one(F, k):
    """Position k holds the lowest one of F."""
    return conj([F.bit(k)] + [Not(F.bit(h)) for h in range(k - 1, -1, -1)])


def unique(F):
    """Exactly one entry of F is true."""
    l = len(F)
    some = disj([F.bit(k) for k in range(l)])
    pairs = [Not(And(F.bit(k), F.bit(m))) for k in range(l) for m in range(k + 1, l)]
    return conj([some] + pairs)


def neq(F, G):
    return Not(eq_vector(F, G, -1))


def lt(F, G):
    """The number encoded by F is strictly below the one encoded by G."""
    l = _same_length(F, G)
    return disj([conj([eq_vector(F, G, k), Not(F.bit(k)), G.bit(k)])
                 for k in range(l)])


def leq(F, G):
    return disj([lt(F, G), eq_vector(F, G, -1)])


def plus1(F, G):
    """F encodes the successor of the number encoded by G."""
    l = _same_length(F, G)
    return disj([conj([eq_vector(F, G, k), rightmost_one(F, k), rightmost_zero(G, k)])
                 for k in range(l)])


def neq_plus1(F, G):
    return Not(plus1(F, G))


def lt_binary(F, i):
    """The number encoded by F is strictly below the constant i."""
    l = len(F)
    if not 0 <= i < 2 ** l:
        raise ValueError(f"{i} is not representable in {l} bits")
    return disj([conj([Not(F.bit(k))] + [Not(F.bit(h)) for h in range(k + 1, l)
                                         if not i >> h & 1])
                 for k in range(l) if i >> k & 1])


def leq_binary(F, i):
    return disj([lt_binary(F, i), eq_binary(F, i)])


def gt_binary(F, i):
    return Not(leq_binary(F, i))


def persistent_macro(F, k=-1):
    """Every entry above position k keeps its truth value along every
    []-transition: AND_{h=k+1..l-1} K([]F_h | []!F_h)."""
    l = len(F)
    if not -1 <= k <= l - 1:
        raise ValueError(f"threshold {k} out of range for length {l}")
    return conj([K(Or(Box(F.bit(h)), Box(Not(F.bit(h)))))
                 for h in range(l - 1, k, -1)])


# ---------------------------------------------------------------------------
# Shared variables: L-prefixed formulas whose truth is constant on each
# L-equivalence class but may change from class to class.

def shared_ssl(a, b):
    """Subset-space shared variable over carrier atom a and class marker b:
    L(a & []Lb)."""
    return L(And(a, Box(L(b))))


def shared_s4s5(a):
    """Product-logic shared variable over carrier atom a: La."""
    return L(a)


def shared_var_ssl(i, catalog):
    """Shared variable number i of a subset-space variable catalog."""
    return shared_ssl(Atom(catalog.atom("A", i)), Atom(catalog.atom("B")))


def shared_var_s4s5(i, catalog):
    """Shared variable number i of a product-logic variable catalog."""
    return shared_s4s5(Atom(catalog.atom("A", i)))
