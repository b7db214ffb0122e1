"""Free Lie rings on indexed generators, with Hall normal forms.

Generators carry a name and an integer index; bracket trees are nested pairs.
normalize() rewrites any tree into the fixed Hall basis (heavier word first,
so [a, b] normalizes to -[b, a] when a < b); the rewriting procedures split
left-normed words [U, m_1, ..., m_s] into kept and dropped parts while
preserving the exact free-Lie identity.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Collection, Mapping, Sequence

from .combinatorics import (
    FrobeniusParams,
    additive_order,
    capacity_n,
    d_set,
    is_r_dependent,
)
from .errors import CapacityError, InputError

REASON_ZERO_SUM = "zero-index-sum subterm"
REASON_INDEPENDENT = "r-independent (c+1)-bracket"
REASON_ENGEL = "w equal high-order indices"


# the cap on word weights in hall_basis, and razresh_membership's default
WEIGHT_CAP = 8
# razresh_membership enumerates (2m - 3)!! trees of weight m: 15 at weight 4,
# 135,135 at weight 8, whose normalization alone takes about 20 s
RAZRESH_TREE_CAP = 10_000


@dataclass(frozen=True, order=True)
class IndexedGenerator:
    """Named generator with an integer index."""

    name: str
    index: int = 0


# intern tables: the one HallWord per generator, and one row per left word
# that maps each right word to the node [left, right], so no (left, right)
# pair tuple is kept per word or built per lookup (BENCH_31.json); one int
# key packed from dense per-word serials was measured no faster on
# lie-rewrite than the pair tuple (BENCH_25.json)
_LEAVES: dict[IndexedGenerator, "HallWord"] = {}
_NODES: dict["HallWord", dict["HallWord", "HallWord"]] = {}


class HallWord(tuple):
    """Bracket tree in Hall normal form, which is its own order key.

    A word is an interned tuple: (1, (name, index), gen, index) for a leaf
    and (weight, left, right, index_sum) for a node.  Native tuple order is
    the Hall order, by weight first, then by (name, index) for leaves (only
    leaves have weight 1) and by the left word then the right word for
    nodes; the entries past those never decide it, since two words that
    agree on them are the same word.  leaf() and node() return the one
    instance per tree, so tuple equality comes down to identity, hashing is
    by identity, and ordering skips the subwords two words share.  Copies
    and unpickled words go back through leaf() and node().  `key` is the
    nested (1, (name, index)) or (weight, left.key, right.key) that this
    order agrees with.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    @classmethod
    def leaf(cls, gen: IndexedGenerator) -> "HallWord":
        word = _LEAVES.get(gen)
        if word is None:
            word = _LEAVES[gen] = tuple.__new__(cls, (1, (gen.name, gen.index), gen, gen.index))
        return word

    @classmethod
    def node(cls, left: "HallWord", right: "HallWord") -> "HallWord":
        row = _NODES.get(left)
        if row is None:
            row = _NODES[left] = {}
        word = row.get(right)
        if word is None:
            word = row[right] = tuple.__new__(
                cls, (left[0] + right[0], left, right, left[3] + right[3]))
        return word

    def __reduce__(self):
        if self.is_leaf:
            return HallWord.leaf, (self.gen,)
        return HallWord.node, (self.left, self.right)

    weight = property(itemgetter(0))
    index_sum = property(itemgetter(3))

    @property
    def is_leaf(self) -> bool:
        return self[0] == 1

    @property
    def gen(self) -> IndexedGenerator | None:
        return self[2] if self[0] == 1 else None

    @property
    def left(self) -> "HallWord | None":
        return None if self[0] == 1 else self[1]

    @property
    def right(self) -> "HallWord | None":
        return None if self[0] == 1 else self[2]

    @property
    def key(self) -> tuple:
        if self[0] == 1:
            return self[:2]
        return (self[0], self[1].key, self[2].key)

    def to_tree(self):
        if self.is_leaf:
            return self.gen
        return (self.left.to_tree(), self.right.to_tree())

    def leaves(self) -> tuple[IndexedGenerator, ...]:
        if self.is_leaf:
            return (self.gen,)
        return self.left.leaves() + self.right.leaves()

    def __repr__(self):
        return format_tree(self.to_tree())


def is_hall(word: HallWord) -> bool:
    """Whether the tree satisfies the Hall conditions of the fixed order."""
    # read by index, as in _hall_bracket: [0] == 1 marks a leaf, and a
    # node's left and right words are [1] and [2]
    if word[0] == 1:
        return True
    u, v = word[1], word[2]
    if not (is_hall(u) and is_hall(v) and u > v):
        return False
    return u[0] == 1 or u[2] <= v


def _add_into(acc: dict[HallWord, int],
              pairs: Collection[tuple[HallWord, int]]) -> dict[HallWord, int]:
    """acc after adding the (word, coefficient) pairs into it in place; a
    word whose coefficient cancels leaves acc."""
    for w, c in pairs:
        c += acc.get(w, 0)
        if c:
            acc[w] = c
        else:
            acc.pop(w, None)
    return acc


class FreeLieElement:
    """Integer combination of Hall words; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[HallWord, int] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, terms: dict[HallWord, int]) -> "FreeLieElement":
        """The element that keeps `terms`, a new dict with no zero
        coefficient, without copying it."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "FreeLieElement":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FreeLieElement") -> "FreeLieElement":
        return FreeLieElement._of(_add_into(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "FreeLieElement":
        return FreeLieElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FreeLieElement") -> "FreeLieElement":
        return self + (-other)

    def scale(self, c: int) -> "FreeLieElement":
        return FreeLieElement({w: c * k for w, k in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FreeLieElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return format_element(self)


# --- Hall rewriting ---

# results of [u, v] that needed the Hall rewrite; a bracket already in Hall
# form is its interned node, so it is never stored here, and [v, u] reuses
# the row of [u, v] with sign -1.  Each row is the rewrite's accumulator
# without its zero coefficients, kept as one dict (no pair tuple per term for
# the garbage collector to track), and callers get only row.items():
# normalize and bracket copy it into the element they build.
_BRACKET_MEMO: dict[tuple[HallWord, HallWord], dict[HallWord, int]] = {}


def _hall_bracket(u: HallWord, v: HallWord) -> tuple[Collection[tuple[HallWord, int]], int]:
    """[u, v] for Hall words u, v, expanded into the Hall basis: (row, sign)
    with [u, v] = sign * the sum of the row's (word, coefficient) pairs."""
    if u is v:
        return (), 1
    if u < v:
        row, sign = _hall_bracket(v, u)
        return row, -sign
    if u[0] == 1 or u[2] <= v:
        return ((HallWord.node(u, v), 1),), 1
    pair = (u, v)
    got = _BRACKET_MEMO.get(pair)
    if got is not None:
        return got.items(), 1
    # u = [u1, u2] with u2 > v: [[u1,u2],v] = [[u1,v],u2] + [u1,[u2,v]]
    u1, u2 = u[1], u[2]
    acc: dict[HallWord, int] = {}
    row, sign = _hall_bracket(u1, v)
    for w, c in row:
        inner, s = _hall_bracket(w, u2)
        c *= sign * s
        for x, d in inner:
            acc[x] = acc.get(x, 0) + c * d
    row, sign = _hall_bracket(u2, v)
    for w, c in row:
        inner, s = _hall_bracket(u1, w)
        c *= sign * s
        for x, d in inner:
            acc[x] = acc.get(x, 0) + c * d
    row = _BRACKET_MEMO[pair] = {w: c for w, c in acc.items() if c}
    return row.items(), 1


def _dict_bracket(a: Collection[tuple[HallWord, int]],
                  b: Collection[tuple[HallWord, int]]) -> dict[HallWord, int]:
    """Bracket of two combinations given as (word, coefficient) pairs."""
    out: dict[HallWord, int] = {}
    for u, cu in a:
        for v, cv in b:
            row, sign = _hall_bracket(u, v)
            cuv = cu * cv * sign
            for w, c in row:
                out[w] = out.get(w, 0) + cuv * c
    return {w: c for w, c in out.items() if c}


def bracket(a: FreeLieElement, b: FreeLieElement) -> FreeLieElement:
    """Lie bracket of two normalized elements."""
    return FreeLieElement._of(_dict_bracket(a.terms.items(), b.terms.items()))


def normalize(expr) -> FreeLieElement:
    """Hall normal form of a bracket tree (or element; linear, idempotent).

    Trees are IndexedGenerators or nested 2-tuples/lists of trees.
    """
    if isinstance(expr, FreeLieElement):
        return expr
    return FreeLieElement._of(dict(_normal_pairs(expr)))


def _normal_pairs(expr) -> Collection[tuple[HallWord, int]]:
    """normalize() as (word, coefficient) pairs with distinct words and no
    zero coefficient."""
    if type(expr) is not tuple:  # a plain tuple, a tree's inner node, goes on at once
        if isinstance(expr, IndexedGenerator):
            return ((HallWord.leaf(expr), 1),)
        # a Hall word is a tuple too, so it is tested before the bracket case
        if isinstance(expr, HallWord):
            return ((expr, 1),)
        if isinstance(expr, FreeLieElement):
            return expr.terms.items()
        if not isinstance(expr, (tuple, list)):
            raise InputError(f"not a bracket expression: {expr!r}")
    if len(expr) != 2:
        raise InputError("bracket trees are binary; use nested pairs")
    a, b = _normal_pairs(expr[0]), _normal_pairs(expr[1])
    if len(a) != 1 or len(b) != 1:
        return _dict_bracket(a, b).items()
    ((u, cu),), ((v, cv),) = a, b
    row, sign = _hall_bracket(u, v)
    c = cu * cv * sign
    return row if c == 1 else tuple((w, c * k) for w, k in row)


def tree_index_sum(tree) -> int:
    if isinstance(tree, IndexedGenerator):
        return tree.index
    if isinstance(tree, HallWord):
        return tree.index_sum
    return tree_index_sum(tree[0]) + tree_index_sum(tree[1])


# --- Hall basis enumeration ---


def hall_basis(
    generators: Sequence[IndexedGenerator],
    max_weight: int,
) -> list[HallWord]:
    """All Hall words of weight up to max_weight, sorted; max_weight past
    WEIGHT_CAP raises CapacityError.

    >>> a, b = IndexedGenerator("a"), IndexedGenerator("b")
    >>> [w.weight for w in hall_basis([a, b], 2)]
    [1, 1, 2]
    """
    if max_weight < 1:
        raise InputError("max_weight must be at least 1")
    if max_weight > WEIGHT_CAP:
        raise CapacityError(f"max_weight {max_weight} exceeds cap {WEIGHT_CAP}")
    gens = list(generators)
    if len({(g.name, g.index) for g in gens}) != len(gens):
        raise InputError("generators must be distinct")
    by_weight: list[list[HallWord]] = [[]]
    by_weight.append(sorted(HallWord.leaf(g) for g in gens))
    for w in range(2, max_weight + 1):
        level = []
        for wu in range(1, w):
            for u in by_weight[wu]:
                for v in by_weight[w - wu]:
                    if u > v and (u.is_leaf or u.right <= v):
                        level.append(HallWord.node(u, v))
        by_weight.append(sorted(level))
    return [t for level in by_weight[1:] for t in level]


# --- delta commutators ---


def delta_tree(k: int, args: Sequence) -> object:
    """Balanced bracketing tree on 2**k arguments."""
    if k < 1:
        raise InputError("k must be at least 1")
    items = list(args)
    if len(items) != 2**k:
        raise InputError(f"delta_{k} needs {2 ** k} arguments, got {len(items)}")

    def build(chunk):
        if len(chunk) == 1:
            return chunk[0]
        half = len(chunk) // 2
        return (build(chunk[:half]), build(chunk[half:]))

    return build(items)


def delta(k: int, args: Sequence[IndexedGenerator]) -> FreeLieElement:
    """Normalized delta_k commutator.

    >>> x, y = IndexedGenerator("x"), IndexedGenerator("y")
    >>> delta(1, [x, y]) == normalize((x, y))
    True
    """
    return normalize(delta_tree(k, args))


# --- textual expressions ---

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|@|-?\d+|\[|\]|,)")


def parse_expression(text: str):
    """Parse `x@i`, `[e1, e2]`, and left-normed `[e1, e2, e3, ...]` sugar."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"bad token at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.reverse()

    def pop(expect: str | None = None) -> str:
        if not tokens:
            raise InputError("unexpected end of expression")
        tok = tokens.pop()
        if expect is not None and tok != expect:
            raise InputError(f"expected {expect!r}, got {tok!r}")
        return tok

    def parse_one():
        tok = pop()
        if tok == "[":
            items = [parse_one()]
            while True:
                sep = pop()
                if sep == "]":
                    break
                if sep != ",":
                    raise InputError(f"expected ',' or ']', got {sep!r}")
                items.append(parse_one())
            if len(items) < 2:
                raise InputError("brackets need at least two entries")
            tree = items[0]
            for item in items[1:]:
                tree = (tree, item)
            return tree
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            raise InputError(f"expected a generator name, got {tok!r}")
        if tokens and tokens[-1] == "@":
            pop("@")
            idx = pop()
            try:
                index = int(idx)
            except ValueError:
                raise InputError(f"bad index {idx!r}") from None
            return IndexedGenerator(tok, index)
        return IndexedGenerator(tok, 0)

    tree = parse_one()
    if tokens:
        raise InputError(f"trailing input: {' '.join(reversed(tokens))}")
    return tree


def format_tree(tree) -> str:
    if isinstance(tree, IndexedGenerator):
        return tree.name if tree.index == 0 else f"{tree.name}@{tree.index}"
    if isinstance(tree, HallWord):
        return format_tree(tree.to_tree())
    return f"[{format_tree(tree[0])}, {format_tree(tree[1])}]"


def format_element(elem: FreeLieElement) -> str:
    if elem.is_zero():
        return "0"
    parts = []
    for word in sorted(elem.terms):
        c = elem.terms[word]
        text = format_tree(word)
        if c == 1:
            part = text
        elif c == -1:
            part = f"-{text}"
        else:
            part = f"{c}*{text}"
        parts.append(part)
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


# --- rewriting procedures ---


@dataclass(frozen=True)
class UAtom:
    """Opaque head commutator, known only by its index tuple."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class RewriteTerm:
    coeff: int
    elems: tuple  # bracket trees following the head
    reason: str | None = None


@dataclass(frozen=True)
class RewriteResult:
    u_leaf: IndexedGenerator
    kept: FreeLieElement
    dropped: tuple[tuple[FreeLieElement, str], ...]
    kept_terms: tuple[RewriteTerm, ...]
    dropped_terms: tuple[RewriteTerm, ...]
    input_element: FreeLieElement

    def verify(self) -> bool:
        """Exact identity: input = kept + sum of dropped."""
        total = dict(self.kept.terms)
        for elem, _ in self.dropped:
            _add_into(total, elem.terms.items())
        return total == self.input_element.terms


def _term_element(u_leaf: IndexedGenerator, coeff: int, elems: Sequence) -> FreeLieElement:
    tree: object = u_leaf
    for e in elems:
        tree = (tree, e)
    return normalize(tree).scale(coeff)


def _prepare_head(U, tail, c: int, params: FrobeniusParams):
    if isinstance(U, UAtom):
        indices = tuple(U.indices)
    else:
        indices = tuple(U)
    if len(indices) != c:
        raise InputError(f"U carries {len(indices)} indices, expected c={c}")
    n = params.n
    if any(i % n == 0 for i in indices):
        raise InputError("U indices must be nonzero")
    dep, _ = is_r_dependent(indices, params)
    if dep:
        raise InputError("U index tuple is r-dependent")
    gens = list(tail)
    for g in gens:
        if not isinstance(g, IndexedGenerator):
            raise InputError("tail entries must be IndexedGenerators")
        if g.index % n == 0:
            raise InputError(f"tail index {g.index} is zero mod {n}")
        if g.name == "u":
            raise InputError("the name 'u' is reserved for the head")
    u_leaf = IndexedGenerator("u", sum(indices) % n)
    return indices, gens, u_leaf


def _split_at(elems: tuple, k: int) -> tuple[tuple, tuple]:
    """[X, a, b] = [X, b, a] + [X, [a, b]] applied at positions k-1, k."""
    a, b = elems[k - 1], elems[k]
    swapped = elems[:k - 1] + (b, a) + elems[k + 1:]
    merged = elems[:k - 1] + ((a, b),) + elems[k + 1:]
    return swapped, merged


def _scan_bad(elems: tuple, dset: set[int], n: int):
    """First position whose index is 0 or outside the D-set, with its kind."""
    for k, e in enumerate(elems):
        idx = tree_index_sum(e) % n
        if idx == 0:
            return k, "zero"
        if idx not in dset:
            return k, "outside"
    return None, None


def _sum_terms(u_leaf: IndexedGenerator, terms) -> FreeLieElement:
    """The sum of the (coeff, elems) terms, added into one dict."""
    acc: dict[HallWord, int] = {}
    for coeff, elems in terms:
        _add_into(acc, _term_element(u_leaf, coeff, elems).terms.items())
    return FreeLieElement._of(acc)


def _finish(u_leaf, kept, dropped, start_terms) -> RewriteResult:
    kept_elem = _sum_terms(u_leaf, ((t.coeff, t.elems) for t in kept))
    dropped_pairs = tuple(
        (_term_element(u_leaf, t.coeff, t.elems), t.reason) for t in dropped
    )
    input_elem = _sum_terms(u_leaf, start_terms)
    return RewriteResult(u_leaf, kept_elem, dropped_pairs,
                         tuple(kept), tuple(dropped), input_elem)


def _rewrite(U, tail, c: int, params: FrobeniusParams, w: int | None) -> RewriteResult:
    """The rewriting loop of odin_rewrite (w None) and dva_rewrite."""
    indices, gens, u_leaf = _prepare_head(U, tail, c, params)
    dset = d_set(indices, params)
    n = params.n
    if w is not None:
        cap = capacity_n(c, params.q)
        a_set = {j for j in dset if additive_order(j, n) > cap}
        threshold = (w - 1) * len(dset)
    start = [(1, tuple(gens))]
    kept: list[RewriteTerm] = []
    dropped: list[RewriteTerm] = []
    work = list(start)
    while work:
        coeff, elems = work.pop()
        k, kind = _scan_bad(elems, dset, n)
        if kind == "zero":
            dropped.append(RewriteTerm(coeff, elems, REASON_ZERO_SUM))
            continue
        if kind == "outside":
            if k == 0:
                dropped.append(RewriteTerm(coeff, elems, REASON_INDEPENDENT))
            else:
                swapped, merged = _split_at(elems, k)
                work.append((coeff, swapped))
                work.append((coeff, merged))
            continue
        if w is None or len(elems) <= threshold:
            kept.append(RewriteTerm(coeff, elems))
            continue
        idxs = [tree_index_sum(e) % n for e in elems]
        heavy = sorted(j for j in set(idxs) if j in a_set and idxs.count(j) >= w)
        if heavy:
            j = heavy[0]
            run = 0
            drop = False
            for i in idxs:
                run = run + 1 if i == j else 0
                if run >= w:
                    drop = True
                    break
            if drop:
                dropped.append(RewriteTerm(coeff, elems, REASON_ENGEL))
                continue
            # bubble the leftmost j-copy that sits behind a non-j element
            pos = next(t for t in range(1, len(idxs))
                       if idxs[t] == j and idxs[t - 1] != j)
            swapped, merged = _split_at(elems, pos)
            work.append((coeff, swapped))
            work.append((coeff, merged))
            continue
        pair = next((t for t in range(1, len(idxs))
                     if idxs[t] in a_set and idxs[t - 1] not in a_set), None)
        if pair is None:
            kept.append(RewriteTerm(coeff, elems))
            continue
        swapped, merged = _split_at(elems, pair)
        work.append((coeff, swapped))
        work.append((coeff, merged))
    return _finish(u_leaf, kept, dropped, start)


def odin_rewrite(U, tail: Sequence[IndexedGenerator], c: int,
                 params: FrobeniusParams) -> RewriteResult:
    """Rewrite [U, tail...] so every kept term has all post-head indices in
    the D-set of U's index tuple.

    Terms acquiring a zero-index or a fresh independent index at the head are
    dropped with the clause that justified it; the exact identity
    input = kept + sum(dropped) always holds (see RewriteResult.verify).
    """
    return _rewrite(U, tail, c, params, None)


def dva_rewrite(U, tail: Sequence[IndexedGenerator], c: int,
                params: FrobeniusParams, w: int) -> RewriteResult:
    """Like odin_rewrite, but long kept terms are reordered so high-additive-
    order indices form a short leading segment.

    Indices in the D-set split into A (additive order above capacity_n(c, q))
    and B (the rest).  Terms no longer than (w-1)*|D| pass through untouched;
    longer ones get their A-indices bubbled to the front, and any term
    carrying w adjacent equal A-indices is dropped.
    """
    if w < 1:
        raise InputError("w must be at least 1")
    return _rewrite(U, tail, c, params, w)


# --- span membership for the delta commutators ---


@dataclass(frozen=True)
class RazreshReport:
    member: bool
    qualifying_count: int
    certificate: tuple[tuple[Fraction, object], ...] | None


def _all_trees(leaves: tuple) -> list:
    """Binary trees using each leaf once; the least leaf stays on the left,
    so each tree appears in exactly one orientation."""
    if len(leaves) == 1:
        return [leaves[0]]
    out = []
    first, rest = leaves[0], leaves[1:]
    for r in range(len(rest)):
        for right_leaves in itertools.combinations(rest, r + 1):
            left_leaves = (first,) + tuple(g for g in rest if g not in right_leaves)
            for lt in _all_trees(left_leaves):
                for rt in _all_trees(tuple(right_leaves)):
                    out.append((lt, rt))
    return out


def _spine_reading(tree, length: int):
    """Split tree as a left-normed [S_1, ..., S_length], if deep enough."""
    parts = []
    for _ in range(length - 1):
        # a Hall word is a tuple too, but it is read whole, as a generator is
        if not isinstance(tree, tuple) or isinstance(tree, HallWord):
            return None
        parts.append(tree[1])
        tree = tree[0]
    parts.append(tree)
    return tuple(reversed(parts))


def _subtrees(tree):
    yield tree
    if isinstance(tree, tuple) and not isinstance(tree, HallWord):
        yield from _subtrees(tree[0])
        yield from _subtrees(tree[1])


def _tree_qualifies(tree, c: int, params: FrobeniusParams) -> bool:
    n = params.n
    for sub in _subtrees(tree):
        if tree_index_sum(sub) % n == 0:
            return True
    for sub in _subtrees(tree):
        parts = _spine_reading(sub, c + 1)
        if parts is None:
            continue
        tup = tuple(tree_index_sum(p) % n for p in parts)
        if any(t == 0 for t in tup):
            continue  # covered by the zero-sum clause when it fires
        dep, _ = is_r_dependent(tup, params)
        if not dep:
            return True
    return False


def razresh_membership(
    c: int,
    q: int,
    params: FrobeniusParams,
    indices: Sequence[int],
    weight_cap: int | None = None,
) -> RazreshReport:
    """Whether delta_f on generators with the given indices lies in the span
    of qualifying commutators (zero-sum subterm, or an r-independent
    (c+1)-fold left-normed subcommutator).

    f is read off len(indices) = 2**f; the span check is exact over the
    rationals, and a found certificate is re-verified by normalization.
    A weight with more than RAZRESH_TREE_CAP trees is refused before any
    tree is built.
    """
    if q != params.q:
        raise InputError("q must match params.q")
    if c < 0:
        raise InputError("c must be nonnegative")
    if weight_cap is None:
        weight_cap = WEIGHT_CAP
    if weight_cap > WEIGHT_CAP:
        raise CapacityError(f"weight_cap {weight_cap} exceeds cap {WEIGHT_CAP}")
    m = len(indices)
    f = m.bit_length() - 1
    if m < 2 or m != 2**f:
        raise InputError("need 2**f indices with f >= 1")
    if m > weight_cap:
        raise CapacityError(f"weight {m} exceeds weight_cap {weight_cap}")
    trees = math.prod(range(1, 2 * m - 2, 2))  # (2m - 3)!!
    if trees > RAZRESH_TREE_CAP:
        raise CapacityError(
            f"weight {m} has {trees} trees, above RAZRESH_TREE_CAP {RAZRESH_TREE_CAP}")
    n = params.n
    if any(i % n == 0 for i in indices):
        raise InputError("indices must be nonzero")
    gens = tuple(IndexedGenerator(f"y{t + 1}", indices[t] % n) for t in range(m))
    target = delta(f, gens)
    qualifying = [t for t in _all_trees(gens) if _tree_qualifies(t, c, params)]
    elements = [normalize(t) for t in qualifying]
    words = sorted({w for e in elements for w in e.terms} | set(target.terms))
    if not qualifying:
        return RazreshReport(target.is_zero(), 0, () if target.is_zero() else None)
    mat = [[Fraction(e.terms.get(w, 0)) for e in elements] for w in words]
    rhs = [Fraction(target.terms.get(w, 0)) for w in words]
    from .linalg import frac_rational_solve

    sol = frac_rational_solve(mat, rhs)
    if sol is None:
        return RazreshReport(False, len(qualifying), None)
    certificate = tuple((coeff, tree) for coeff, tree in zip(sol, qualifying) if coeff)
    # independent re-check: scale through the denominators and compare exactly
    denom = math.lcm(*(coeff.denominator for coeff, _ in certificate)) if certificate else 1
    acc = FreeLieElement.zero()
    for coeff, tree in certificate:
        scaled = coeff * denom
        acc = acc + normalize(tree).scale(int(scaled))
    if acc != target.scale(denom):
        raise InputError("certificate failed exact verification")
    return RazreshReport(True, len(qualifying), certificate)
