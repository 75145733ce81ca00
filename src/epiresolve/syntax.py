"""Formula ASTs, parsing and printing, and the resolution rewriter.

The primitive connectives are negation, conjunction, the knowledge
modalities ``K i``, ``D{..}``, ``C{..}``, the resolution modality
``R{..}`` and public announcement ``[psi] phi``.  Disjunction,
implication, biconditional and the everybody-knows operator ``E{..}``
are sugar and desugar on construction, so every consumer only ever
sees primitive nodes.

Nodes are interned on construction (hash-consing): equal formulas are one
object, so equality is identity, the hash is the id, and neither recurses.
Each node also carries facts, built from its children's before it is
interned: the agents and atoms it mentions and a mask of the kinds of node
in it (each class's ``_kind`` bit), so `atoms`, `agents`, `language_of`
and the announcement and resolution checks read a field instead of walking.
Parsing, `render` and the folds over `_postorder` (each distinct subformula
once, children first) use explicit stacks, so any depth parses, prints and reduces.
"""

from __future__ import annotations

import re
import threading
import weakref
from enum import Enum
from functools import partial
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
_NONE = frozenset()
_shared: dict = {}  # one object per distinct fact (a set or a mask) of the nodes entered since the last prune


def _node(key: tuple, cls: type, *values) -> Formula:
    """The live node of the key, or a new one entered in the table with its facts set."""
    global _prune_at
    ref = _table.get(key)
    node = ref and ref()
    if node is None:
        node = object.__new__(cls)
        agents, atoms, kinds = _NONE, _NONE, cls._kind
        for name, value in zip(cls._fields, values):  # a node's own mention is its first field
            object.__setattr__(node, name, value)
            if isinstance(value, Formula):  # a child: the node mentions what it mentions
                agents, atoms, kinds = agents | value._agents, atoms | value._atoms, kinds | value._kinds
            elif name == "name":
                atoms = frozenset((value,))
            elif name == "agent":
                agents = frozenset((value,))
            elif name == "group":
                agents = value
        object.__setattr__(node, "_agents", _shared.setdefault(agents, agents))
        object.__setattr__(node, "_atoms", _shared.setdefault(atoms, atoms))
        object.__setattr__(node, "_kinds", _shared.setdefault(kinds, kinds))
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
                _shared.clear()  # live nodes keep their facts; the next ones share anew
    return node


class Formula:
    """An immutable, interned formula node: equal formulas are one object."""

    # _plan: the evaluation order `checker` keeps on the node; the others are the node's facts
    __slots__ = ("__weakref__", "_plan", "_agents", "_atoms", "_kinds")
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


for _bit, _cls in enumerate((Atom, Top, Bot, Neg, And, K, D, C, R, Ann)):
    _cls._kind = 1 << _bit
TRUE = Top()
FALSE = Bot()
_UNARY = frozenset([Neg, K, D, C, R])  # the nodes whose one child is their body


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
    cls = type(f)
    if cls in _UNARY:
        return (f.body,)
    return (f.left, f.right) if cls is And else (f.announced, f.body) if cls is Ann else ()


def _postorder(f: Formula, kids=children) -> list:
    """Each distinct subformula that `kids` reaches from f once, children before parents, f last."""
    order, seen, stack = [], set(), [f]
    while stack:
        g = stack.pop()
        if g is None:  # the node below it has all its children in order
            order.append(stack.pop())
        elif g not in seen:
            seen.add(g)
            stack += (g, None)
            stack += kids(g)[::-1]
    return order


def subformulas(f: Formula) -> frozenset:
    """All subterms of f, including f itself."""
    return frozenset(_postorder(f))


def atoms(f: Formula) -> frozenset:
    return f._atoms


def agents(f: Formula) -> frozenset:
    """Every agent id mentioned by f, directly or through a group."""
    return f._agents


class LanguageTag(Enum):
    ELD = "ELD"
    ELCD = "ELCD"
    PACD = "PACD"
    RD = "RD"
    RCD = "RCD"


def language_of(f: Formula) -> LanguageTag:
    """The smallest of the five supported languages containing f."""
    kinds = {cls for cls in (C, R, Ann) if f._kinds & cls._kind}
    if R in kinds and Ann in kinds:
        raise ValueError("formula mixes resolution and announcement; no supported language contains both")
    if Ann in kinds:
        return LanguageTag.PACD
    if R in kinds:
        return LanguageTag.RCD if C in kinds else LanguageTag.RD
    return LanguageTag.ELCD if C in kinds else LanguageTag.ELD


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


_IDENT = re.compile(r"[A-Za-z0-9_]+")
_MODAL_HEADS = {"D": D, "C": C, "E": E, "R": R}
_ALONE = {"~": Neg, "true": TRUE, "false": FALSE}  # tokens that are a prefix operator or an operand alone

# binding strength, whether a chain groups to the right, and the constructor
_BINARY = {"<->": (1, False, Iff), "->": (2, True, Implies), "|": (3, False, Or), "&": (4, False, And)}


def _fold(operands: list, operators: list, strength: int) -> None:
    """Apply the stacked binary operators that bind at least `strength`, the last stacked first."""
    while operators and operators[-1][0] >= strength:
        right = operands.pop()
        operands[-1] = operators.pop()[1](operands[-1], right)


class _Parser:
    """One operator-precedence loop over explicit stacks: nesting costs no Python recursion.

    Precedence, loosest first: <->, -> (right associative), |, &, then the
    prefix operators negation / modalities / announcement, each a node
    constructor with its first argument bound.  When an agent universe is
    supplied, ``K<id>`` shorthand is recognized only for declared ids and
    brace lists are checked against the universe; ``K<id>`` on another id
    is an atom unless a formula follows it, which makes it an undeclared
    agent.  Without one, agents are inferred and the shorthand is
    restricted to numeric ids.
    """

    def __init__(self, text: str, universe: Optional[frozenset]):
        self.text = text
        self.tokens = _tokenize(text) + [(None, len(text))]  # the end of input reads as a token None
        self.pos = 0
        self.universe = universe

    def peek(self):
        return self.tokens[self.pos][0]

    def here(self) -> int:
        return self.tokens[self.pos][1]

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            wanted = repr(expected) if expected else "an agent id"
            raise ParseError(f"unexpected end of input (expected {wanted})", self.here())
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} but found {tok!r}", self.here())
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        frames = []  # per open bracket: its closer, operands, binary operators and prefixes awaiting an operand
        closer, operands, operators, prefixes = None, [], [], []
        while True:
            tok = self.peek()
            if tok == "(" or tok == "[":
                self.pos += 1
                frames.append((closer, operands, operators, prefixes))
                closer, operands, operators, prefixes = ")" if tok == "(" else "]", [], [], []
                continue
            f = self.leaf(tok)
            if not isinstance(f, Formula):
                prefixes.append(f)
                continue
            while True:  # f is a whole operand: the next token continues or closes the frame
                while prefixes:
                    f = prefixes.pop()(f)
                operands.append(f)
                tok = self.peek()
                if tok in _BINARY:
                    self.pos += 1
                    strength, right, build = _BINARY[tok]
                    _fold(operands, operators, strength + right)
                    operators.append((strength, build))
                    break
                _fold(operands, operators, 0)
                f = operands.pop()
                if closer is None:
                    if tok is not None:
                        raise ParseError(f"unexpected token {tok!r}", self.here())
                    return f
                closed = self.take(closer)
                closer, operands, operators, prefixes = frames.pop()
                if closed == "]":
                    prefixes.append(partial(Ann, f))
                    break

    def leaf(self, tok: Optional[str]):
        """The atom or constant that `tok`, the token at the cursor, spells, or the prefix operator it starts."""
        if tok is None:
            raise ParseError("unexpected end of input", self.here())
        if tok in _ALONE:
            self.pos += 1
            return _ALONE[tok]
        if tok == "K":
            self.pos += 1
            return partial(K, self.agent_token())
        if tok in _MODAL_HEADS:
            self.pos += 1
            return partial(_MODAL_HEADS[tok], self.group_literal())
        if tok.startswith("K") and len(tok) > 1:
            rest = tok[1:]
            if (rest in self.universe) if self.universe is not None else rest.isdigit():
                self.pos += 1
                return partial(K, rest)
            following = self.tokens[self.pos + 1][0] or ""
            if self.universe is not None and re.fullmatch(r"[A-Za-z0-9_]+|[~(\[]", following):
                # an atom cannot be followed by a formula, so this is K<id> on an undeclared id
                raise ParseError(f"undeclared agent {rest!r}", self.here() + 1)
        if _IDENT.fullmatch(tok):
            self.pos += 1
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r}", self.here())

    def agent_token(self) -> str:
        at = self.here()
        tok = self.take()
        if not _IDENT.fullmatch(tok):
            raise ParseError(f"expected an agent id, found {tok!r}", at)
        if self.universe is not None and tok not in self.universe:
            raise ParseError(f"undeclared agent {tok!r}", at)
        return tok

    def group_literal(self) -> Group:
        at = self.here()
        self.take("{")
        if self.peek() == "}":
            raise ParseError("empty group", at)
        members = [self.agent_token()]
        while self.peek() == ",":
            self.take(",")
            members.append(self.agent_token())
        self.take("}")
        return frozenset(members)


def parse(text: str, agents: Optional[Iterable[Agent]] = None) -> Formula:
    """Parse a formula; `agents` declares the agent universe when given."""
    universe = frozenset(agents) if agents is not None else None
    return _Parser(text, universe).parse()


def render(f: Formula) -> str:
    """Print using the concrete grammar; parse(render(f)) == f.  A stack holds what is left to print:
    text, or a node and whether a conjunction there needs brackets, as it binds looser than its context."""
    pieces, stack = [], [(f, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        g, tight = item
        cls = type(g)
        if cls is And:
            parts = [")", (g.right, True), " & ", (g.left, False), "("]
            stack += parts if tight else parts[1:4]
        elif cls is Ann:
            stack += [(g.body, True), "] ", (g.announced, False), "["]
        elif cls in _UNARY:
            head = "~" if cls is Neg else f"K{g.agent} " if cls is K else f"{cls.__name__}{{{group_key(g.group)}}} "
            pieces.append(head)
            stack.append((g.body, True))
        elif cls is Atom or cls is Top or cls is Bot:
            pieces.append(g.name if cls is Atom else "true" if cls is Top else "false")
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(pieces)


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


def closure(f: Formula) -> frozenset:
    """The finite closure set of an announcement-free formula.

    Least set containing f that is closed under subformulas, single
    negations, the K/D singleton correspondence, everybody-knows unfolding
    of C, and the resolution-prefix clauses that mirror the reduction
    steps (conjunction and negation distribute; prefixed K/D/C add their
    D{delta} counterparts; prefixed C also sheds its C).  An R node's
    clauses come one resolution step from its body's, so a prefix of n
    resolutions costs n steps, not n^2.
    """
    if f._kinds & Ann._kind:
        raise ValueError("closure is defined for announcement-free formulas only")

    # R node -> (core, what its clauses wrap in its prefix, the delta of each target), one step from its body's
    steps: dict = {}

    def step(top: R) -> tuple:
        chain, r = [], top
        while type(r) is R and r not in steps:
            chain.append(r)
            r = r.body
        for h in reversed(chain):
            g, body = h.group, h.body
            if type(body) is R:
                core, wrapped, targets = steps[body]
            else:
                core, cls = body, type(body)
                wrapped = children(body) if cls in (Neg, And) else (body.body,) if cls in (K, D, C) else ()
                targets = ((frozenset([body.agent]),) if cls is K else (body.group,) if cls is D else
                           (body.group, *(frozenset([i]) for i in sorted(body.group))) if cls is C else ())
            steps[h] = (core, tuple(R(g, w) for w in wrapped),
                        tuple(g | t if g & t else t for t in targets))  # delta's fold, one group at a time
        return steps[top]

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
        if isinstance(g, R):
            core, wrapped, targets = step(g)
            if isinstance(core, (Neg, And)):
                new.extend(wrapped)
            elif isinstance(core, (K, D)):
                new.append(D(targets[0], wrapped[0]))  # push_modal's step
            elif isinstance(core, C):
                new.extend(D(t, g) for t in targets)
                new.append(wrapped[0])
        todo.extend(n for n in new if n not in out)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Reduction normal form


def _rebuild(f: Formula, kids: list) -> Formula:
    """f with its children, always its last fields, replaced in order by kids."""
    if tuple(kids) == children(f):
        return f
    return type(f)(*[getattr(f, name) for name in f._fields[:len(f._fields) - len(kids)]], *kids)


def _push_resolution(g: Group, body: Formula) -> Formula:
    """One R{g} pushed into body, which is already in normal form: a fold over the nodes the push enters."""
    if len(g) == 1:
        return body  # resolution by a singleton never changes the model

    def stops(h: Formula) -> bool:  # no reduction applies: R, announcements, and C{H} overlapping g without H <= g
        return type(h) in (R, Ann) or type(h) is C and not h.group <= g and g & h.group

    done: dict = {}
    for h in _postorder(body, lambda h: () if stops(h) else children(h)):
        cls = type(h)
        if stops(h):  # an immediately repeated resolution collapses
            done[h] = h if cls is R and h.group == g else R(g, h)
        elif cls is K and h.agent in g or cls is C and h.group <= g:
            done[h] = D(g, done[h.body])
        elif cls is D and g & h.group:
            done[h] = D(g | h.group, done[h.body])
        else:
            done[h] = _rebuild(h, [done[c] for c in children(h)])
    return done[body]


def reduce(f: Formula) -> Formula:
    """Rewrite to reduction normal form, innermost resolutions first.

    Resolution-free formulas come back unchanged.  Formulas without
    common knowledge or announcements lose every R operator.  A residual
    R{G} C{H} block with overlapping, non-nested groups stays in place,
    as does any resolution applied over such a block or an announcement.
    """
    if not f._kinds & R._kind:
        return f
    done: dict = {}
    for g in _postorder(f, lambda g: [c for c in children(g) if c._kinds & R._kind]):
        kids = [done.get(c, c) for c in children(g)]  # a resolution-free child comes back as it is
        done[g] = _push_resolution(g.group, kids[0]) if type(g) is R else _rebuild(g, kids)
    return done[f]
