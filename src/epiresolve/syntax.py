"""Formula ASTs, parsing and printing, and the resolution rewriter.

The primitive connectives are negation, conjunction, the knowledge
modalities ``K i``, ``D{..}``, ``C{..}``, the resolution modality
``R{..}`` and public announcement ``[psi] phi``.  Disjunction,
implication, biconditional and the everybody-knows operator ``E{..}``
are sugar and desugar on construction, so every consumer only ever
sees primitive nodes.

Nodes are interned on construction (hash-consing): equal formulas are one
object, so equality is identity, the hash is the id, and neither recurses.
"""

from __future__ import annotations

import re
import threading
import weakref
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

Agent = str
Group = frozenset  # frozenset[Agent]

GroupLike = Union[str, Iterable[Agent]]


def as_group(members: GroupLike) -> Group:
    """Normalize a group given as "1,2" or an iterable of agent ids.

    Groups are always non-empty; frozensets make equality canonical.
    """
    if isinstance(members, str):
        members = [part.strip() for part in members.split(",") if part.strip()]
    g = frozenset(members)
    if not g:
        raise ValueError("group must be non-empty")
    return g


def group_key(g: GroupLike) -> str:
    """Canonical spelling of a group: comma-joined sorted agent ids."""
    return ",".join(sorted(as_group(g)))


# ---------------------------------------------------------------------------
# AST.  The intern table maps (class, fields) to a weak reference to the node
# with them.  A child is keyed by its id: a live node keeps its children
# alive, so the id in a live entry's key is never reused.  Entries are added
# and dropped under the lock, so two threads building one formula get one node.

_table: dict = {}
_lock = threading.Lock()
_MIN_PRUNE = _prune_at = 1024


def _node(key: tuple, cls: type, *values) -> Formula:
    """The live node of the key, or a new one entered in the table."""
    global _prune_at
    ref = _table.get(key)
    node = ref and ref()
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(node, name, value)
        with _lock:
            old = _table.get(key)
            old = old and old()
            if old is not None:  # another thread entered the key meanwhile
                return old
            _table[key] = weakref.ref(node)
            if len(_table) >= _prune_at:  # drop the dead entries once the table has doubled
                for k in [k for k, r in _table.items() if r() is None]:
                    del _table[k]
                _prune_at = max(2 * len(_table), _MIN_PRUNE)
    return node


class Formula:
    """An immutable, interned formula node: equal formulas are one object."""

    __slots__ = ("__weakref__",)
    _fields: tuple = ()

    def __new__(cls):  # Top and Bot
        return _node((cls,), cls)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # so that copy, deepcopy and pickle give back the interned node
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __str__(self) -> str:
        return render(self)


class Atom(Formula):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        return _node((cls, name), cls, name)


class Top(Formula):
    __slots__ = ()


class Bot(Formula):
    __slots__ = ()


class Neg(Formula):
    __slots__ = _fields = ("body",)

    def __new__(cls, body: Formula):
        return _node((cls, id(body)), cls, body)


class And(Formula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _node((cls, id(left), id(right)), cls, left, right)


class K(Formula):
    __slots__ = _fields = ("agent", "body")

    def __new__(cls, agent: Agent, body: Formula):
        return _node((cls, agent, id(body)), cls, agent, body)


class _Grouped(Formula):  # D, C and R, whose group is normalized by `as_group`
    __slots__ = _fields = ("group", "body")

    def __new__(cls, group: GroupLike, body: Formula):
        group = as_group(group)
        return _node((cls, group, id(body)), cls, group, body)


class D(_Grouped):
    __slots__ = ()


class C(_Grouped):
    __slots__ = ()


class R(_Grouped):
    __slots__ = ()


class Ann(Formula):
    __slots__ = _fields = ("announced", "body")

    def __new__(cls, announced: Formula, body: Formula):
        return _node((cls, id(announced), id(body)), cls, announced, body)


TRUE = Top()
FALSE = Bot()


def Or(left: Formula, right: Formula) -> Formula:
    return Neg(And(Neg(left), Neg(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Neg(And(left, Neg(right)))


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Implies(left, right), Implies(right, left))


def E(group: GroupLike, body: Formula) -> Formula:
    """Everybody in the group knows: the conjunction of K i over the group."""
    members = sorted(as_group(group))
    out: Formula = K(members[0], body)
    for agent in members[1:]:
        out = And(out, K(agent, body))
    return out


def children(f: Formula) -> tuple:
    if isinstance(f, Neg):
        return (f.body,)
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, (K, D, C, R)):
        return (f.body,)
    if isinstance(f, Ann):
        return (f.announced, f.body)
    return ()


def subformulas(f: Formula) -> frozenset:
    """All subterms of f, including f itself."""
    seen = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if g in seen:
            continue
        seen.add(g)
        todo.extend(children(g))
    return frozenset(seen)


def atoms(f: Formula) -> frozenset:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def agents(f: Formula) -> frozenset:
    """Every agent id mentioned by f, directly or through a group."""
    out = set()
    for g in subformulas(f):
        if isinstance(g, K):
            out.add(g.agent)
        elif isinstance(g, (D, C, R)):
            out.update(g.group)
    return frozenset(out)


class LanguageTag(Enum):
    ELD = "ELD"
    ELCD = "ELCD"
    PACD = "PACD"
    RD = "RD"
    RCD = "RCD"


def language_of(f: Formula) -> LanguageTag:
    """The smallest of the five supported languages containing f."""
    subs = subformulas(f)
    has_c = any(isinstance(g, C) for g in subs)
    has_r = any(isinstance(g, R) for g in subs)
    has_ann = any(isinstance(g, Ann) for g in subs)
    if has_r and has_ann:
        raise ValueError("formula mixes resolution and announcement; no supported language contains both")
    if has_ann:
        return LanguageTag.PACD
    if has_r:
        return LanguageTag.RCD if has_c else LanguageTag.RD
    return LanguageTag.ELCD if has_c else LanguageTag.ELD


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_TOKEN = re.compile(r"[A-Za-z0-9_]+|<->|->|[~&|(){}\[\],]")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


_MODAL_HEADS = {"D", "C", "E", "R"}


class _Parser:
    """Recursive descent over the grammar.

    Precedence, loosest first: <->, -> (right associative), |, &, then
    negation / modalities / announcement.  When an agent universe is
    supplied, ``K<id>`` shorthand is recognized only for declared ids and
    brace lists are checked against the universe; without one, agents are
    inferred and the shorthand is restricted to numeric ids.
    """

    def __init__(self, text: str, universe: Optional[frozenset]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.universe = universe

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input (expected {expected or 'a formula'})", self.here())
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} but found {tok!r}", self.here())
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.iff()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r}", self.here())
        return f

    def iff(self) -> Formula:
        f = self.implies()
        while self.peek() == "<->":
            self.take()
            f = Iff(f, self.implies())
        return f

    def implies(self) -> Formula:
        f = self.disj()
        if self.peek() == "->":
            self.take()
            return Implies(f, self.implies())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        at = self.here()
        if tok is None:
            raise ParseError("unexpected end of input", at)
        if tok == "~":
            self.take()
            return Neg(self.unary())
        if tok == "(":
            self.take()
            f = self.iff()
            self.take(")")
            return f
        if tok == "[":
            self.take()
            announced = self.iff()
            self.take("]")
            return Ann(announced, self.unary())
        if tok == "true":
            self.take()
            return TRUE
        if tok == "false":
            self.take()
            return FALSE
        if tok == "K":
            self.take()
            agent = self.agent_token()
            return K(agent, self.unary())
        if tok in _MODAL_HEADS:
            self.take()
            group = self.group_literal()
            body = self.unary()
            if tok == "D":
                return D(group, body)
            if tok == "C":
                return C(group, body)
            if tok == "R":
                return R(group, body)
            return E(group, body)
        if tok.startswith("K") and len(tok) > 1:
            rest = tok[1:]
            if (self.universe is not None and rest in self.universe) or (
                self.universe is None and rest.isdigit()
            ):
                self.take()
                return K(rest, self.unary())
        if re.fullmatch(r"[A-Za-z0-9_]+", tok):
            self.take()
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r}", at)

    def agent_token(self) -> str:
        at = self.here()
        tok = self.take()
        if not re.fullmatch(r"[A-Za-z0-9_]+", tok):
            raise ParseError(f"expected an agent id, found {tok!r}", at)
        if self.universe is not None and tok not in self.universe:
            raise ParseError(f"undeclared agent {tok!r}", at)
        return tok

    def group_literal(self) -> Group:
        at = self.here()
        self.take("{")
        members = []
        if self.peek() == "}":
            self.take()
            raise ParseError("empty group", at)
        members.append(self.agent_token())
        while self.peek() == ",":
            self.take()
            members.append(self.agent_token())
        self.take("}")
        return frozenset(members)


def parse(text: str, agents: Optional[Iterable[Agent]] = None) -> Formula:
    """Parse a formula; `agents` declares the agent universe when given."""
    universe = frozenset(agents) if agents is not None else None
    return _Parser(text, universe).parse()


def _render(f: Formula, tight: bool) -> str:
    # tight: parenthesize conjunctions (they bind looser than this context)
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Neg):
        return "~" + _render(f.body, True)
    if isinstance(f, And):
        out = _render(f.left, False) + " & " + _render(f.right, True)
        return "(" + out + ")" if tight else out
    if isinstance(f, K):
        return f"K{f.agent} " + _render(f.body, True)
    if isinstance(f, (D, C, R)):
        head = type(f).__name__
        return f"{head}{{{group_key(f.group)}}} " + _render(f.body, True)
    if isinstance(f, Ann):
        return f"[{_render(f.announced, False)}] " + _render(f.body, True)
    raise TypeError(f"not a formula: {f!r}")


def render(f: Formula) -> str:
    """Print using the concrete grammar; parse(render(f)) == f."""
    return _render(f, False)


# ---------------------------------------------------------------------------
# The group index of an iterated resolution


def delta(target: GroupLike, prefix: Sequence[GroupLike]) -> Group:
    """Group indexing the relation picked out by a resolution sequence.

    Folds the sequence from its last element back to its first: the
    accumulator starts at the target group and absorbs every group that
    intersects it.  The result indexes the relation a resolution-prefixed
    K/D modality quantifies over, and always sits inside the union of the
    target with the sequence.
    """
    acc = as_group(target)
    for g in reversed([as_group(x) for x in prefix]):
        if g & acc:
            acc = g | acc
    return acc


def _wrap_resolutions(prefix: Sequence[Group], body: Formula) -> Formula:
    for g in reversed(list(prefix)):
        body = R(g, body)
    return body


def push_modal(prefix: Sequence[GroupLike], inner: Formula) -> Formula:
    """One reduction step: move K/D out of a resolution prefix.

    R{G1}..R{Gn} K i phi  becomes  D{delta({i}, G1..Gn)} R{G1}..R{Gn} phi,
    and likewise for D with the modality's own group as the target.
    """
    groups = [as_group(g) for g in prefix]
    if isinstance(inner, K):
        core: Group = frozenset([inner.agent])
    elif isinstance(inner, D):
        core = inner.group
    else:
        raise ValueError(f"push_modal expects a K or D formula, got {inner}")
    return D(delta(core, groups), _wrap_resolutions(groups, inner.body))


# ---------------------------------------------------------------------------
# Closure


def _strip_resolutions(f: Formula):
    prefix = []
    while isinstance(f, R):
        prefix.append(f.group)
        f = f.body
    return prefix, f


def closure(f: Formula) -> frozenset:
    """The finite closure set of an announcement-free formula.

    Least set containing f that is closed under subformulas, single
    negations, the K/D singleton correspondence, everybody-knows unfolding
    of C, and the resolution-prefix clauses that mirror the reduction
    steps (conjunction and negation distribute; prefixed K/D/C add their
    D{delta} counterparts; prefixed C also sheds its C).
    """
    if any(isinstance(g, Ann) for g in subformulas(f)):
        raise ValueError("closure is defined for announcement-free formulas only")

    out = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if g in out:
            continue
        out.add(g)
        new = list(children(g))
        if not isinstance(g, Neg):
            new.append(Neg(g))
        if isinstance(g, K):
            new.append(D(frozenset([g.agent]), g.body))
        if isinstance(g, D) and len(g.group) == 1:
            (i,) = g.group
            new.append(K(i, g.body))
        if isinstance(g, C):
            new.extend(K(i, g) for i in sorted(g.group))
        prefix, core = _strip_resolutions(g)
        if prefix:
            if isinstance(core, Neg):
                new.append(_wrap_resolutions(prefix, core.body))
            elif isinstance(core, And):
                new.append(_wrap_resolutions(prefix, core.left))
                new.append(_wrap_resolutions(prefix, core.right))
            elif isinstance(core, (K, D)):
                new.append(push_modal(prefix, core))
            elif isinstance(core, C):
                new.append(D(delta(core.group, prefix), g))
                new.extend(D(delta(frozenset([i]), prefix), g) for i in sorted(core.group))
                new.append(_wrap_resolutions(prefix, core.body))
        todo.extend(n for n in new if n not in out)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Reduction normal form


def _push_resolution(g: Group, body: Formula) -> Formula:
    # body is already in normal form; push one R{g} into it
    if len(g) == 1:
        return body  # resolution by a singleton never changes the model
    if isinstance(body, (Atom, Top, Bot)):
        return body
    if isinstance(body, Neg):
        return Neg(_push_resolution(g, body.body))
    if isinstance(body, And):
        return And(_push_resolution(g, body.left), _push_resolution(g, body.right))
    if isinstance(body, K):
        inner = _push_resolution(g, body.body)
        return D(g, inner) if body.agent in g else K(body.agent, inner)
    if isinstance(body, D):
        inner = _push_resolution(g, body.body)
        return D(g | body.group, inner) if g & body.group else D(body.group, inner)
    if isinstance(body, C):
        if not (g & body.group):
            return C(body.group, _push_resolution(g, body.body))
        if body.group <= g:
            return D(g, _push_resolution(g, body.body))
        return R(g, body)  # overlapping, non-contained: no reduction applies
    if isinstance(body, R):
        if body.group == g:
            return body  # an immediately repeated resolution collapses
        return R(g, body)
    return R(g, body)  # announcements have no resolution rewrite


def reduce(f: Formula) -> Formula:
    """Rewrite to reduction normal form, innermost resolutions first.

    Resolution-free formulas come back unchanged.  Formulas without
    common knowledge or announcements lose every R operator.  A residual
    R{G} C{H} block with overlapping, non-nested groups stays in place,
    as does any resolution applied over such a block or an announcement.
    """
    if isinstance(f, (Atom, Top, Bot)):
        return f
    if isinstance(f, Neg):
        return Neg(reduce(f.body))
    if isinstance(f, And):
        return And(reduce(f.left), reduce(f.right))
    if isinstance(f, K):
        return K(f.agent, reduce(f.body))
    if isinstance(f, D):
        return D(f.group, reduce(f.body))
    if isinstance(f, C):
        return C(f.group, reduce(f.body))
    if isinstance(f, Ann):
        return Ann(reduce(f.announced), reduce(f.body))
    if isinstance(f, R):
        return _push_resolution(f.group, reduce(f.body))
    raise TypeError(f"not a formula: {f!r}")
