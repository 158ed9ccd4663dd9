"""A reference derivation checker: the eleven rules as the docstring of
``lamdist.eqtheory.judgments`` states them, over the reference's own
typing, difference types and normal forms.

A node is valid when its rule is one of the eleven, its judgment is well
formed (a context with no primed name, both subjects at the type in it,
the distance at the difference type in the doubled context), each
premise but an ``Abs`` node's shares its context, and the rule's own
conditions hold.  Subjects are compared by de Bruijn equality, and
``Conv`` sides by ``normalizer.equal``.
"""

from __future__ import annotations

from .normalizer import REAL, IllTyped, equal, own_type, read, typed

RULES = ("Lit", "Prim", "Var", "TransReal", "QuasiReflReal", "Abs", "App",
         "Fst", "Snd", "Pair", "Conv")


def difference_type(ty: tuple) -> tuple:
    """The type of ``ty``'s differences: a function's take the input and
    its difference."""
    if ty[0] == "->":
        return ("->", ty[1], ("->", difference_type(ty[1]),
                              difference_type(ty[2])))
    if ty[0] == "*":
        return ("*", difference_type(ty[1]), difference_type(ty[2]))
    return ty


def doubled(ctx: list) -> list:
    """Each entry of ``ctx`` followed by its primed partner."""
    out = []
    for x, ty in ctx:
        out += [(x, ty), (x + "'", difference_type(ty))]
    return out


class _Judgment:
    """A conclusion read once: its context with the reference's types, the
    three subjects in de Bruijn form (the distance in the doubled
    context), its left subject in the doubled context too, where
    distances mention it, and its type."""

    def __init__(self, j):
        self.lamdist = j
        self.ctx = [(x, own_type(ty)) for x, ty in j.ctx]
        self.names = [x for x, _ in self.ctx]
        self.dist_names = [x for x, _ in doubled(self.ctx)]
        self.left = read(j.left, self.names)
        self.right = read(j.right, self.names)
        self.dist = read(j.dist, self.dist_names)
        self.dleft = read(j.left, self.dist_names)
        self.ty = own_type(j.ty)


def check(d, registry) -> tuple[bool, tuple[int, ...]]:
    """Whether every node of ``d`` is valid, and the path (child indices
    from the root) of the first invalid node in preorder."""
    todo = [(d, ())]
    while todo:
        node, path = todo.pop()
        if not valid(node, registry):
            return False, path
        todo += [(p, path + (i,)) for i, p in
                 reversed(list(enumerate(node.premises)))]
    return True, ()


def valid(d, registry) -> bool:
    if d.rule not in RULES:
        return False
    j = _Judgment(d.conclusion)
    if not well_formed(j, registry):
        return False
    ps = [_Judgment(p.conclusion) for p in d.premises]
    if d.rule != "Abs" and any(p.ctx != j.ctx for p in ps):
        return False
    return _RULES[d.rule](j, ps, registry)


def well_formed(j: _Judgment, registry) -> bool:
    if any(x.endswith("'") for x in j.names):
        return False
    lam = j.lamdist
    try:
        tys = (typed(j.ctx, lam.left, registry)[1],
               typed(j.ctx, lam.right, registry)[1],
               typed(doubled(j.ctx), lam.dist, registry)[1])
    except IllTyped:
        return False
    return tys == (j.ty, j.ty, difference_type(j.ty))


# --- the rules: each takes the conclusion, the premises' conclusions and
# the registry --------------------------------------------------------------

def _lit(j, ps, registry) -> bool:
    """Literal subjects, with |r - r2| <= s."""
    if ps or not all(t[0] == "lit" for t in (j.left, j.dist, j.right)):
        return False
    return abs(j.left[1] - j.right[1]) <= j.dist[1]


def _var(j, ps, registry) -> bool:
    """A variable is at distance "its primed partner" from itself."""
    if ps or j.left[0] != "var" or j.dist[0] != "var" or j.right != j.left:
        return False
    return j.dist_names[-1 - j.dist[1]] == j.names[-1 - j.left[1]] + "'"


def _conv(j, ps, registry) -> bool:
    """All three components replaced by provably equal terms."""
    if len(ps) != 1 or ps[0].ty != j.ty:
        return False
    p, lam = ps[0].lamdist, j.lamdist
    try:
        return (equal(j.ctx, p.left, lam.left, registry)
                and equal(j.ctx, p.right, lam.right, registry)
                and equal(doubled(j.ctx), p.dist, lam.dist, registry))
    except IllTyped:
        return False


def _prim(j, ps, registry) -> bool:
    """Congruence through a primitive: the distance is the modulus
    primitive applied to the left arguments and the argument
    distances."""
    if not all(t[0] == "prim" for t in (j.left, j.dist, j.right)):
        return False
    name = j.left[1]
    if (j.right[1] != name or j.dist[1] != registry.derivative(name).name
            or len(ps) != registry.arity(name)
            or any(p.ty != REAL for p in ps)):
        return False
    return (j.left[2] == tuple(p.left for p in ps)
            and j.right[2] == tuple(p.right for p in ps)
            and j.dist[2] == tuple(p.dleft for p in ps)
            + tuple(p.dist for p in ps))


def _trans_real(j, ps, registry) -> bool:
    """The triangle step at Real: the distances add up."""
    if len(ps) != 2 or j.ty != REAL or any(p.ty != REAL for p in ps):
        return False
    p, q = ps
    return (p.right == q.left and j.left == p.left and j.right == q.right
            and j.dist == ("prim", "add", (p.dist, q.dist)))


def _quasi_refl_real(j, ps, registry) -> bool:
    """The self-distance step at Real: the left subject is at the
    premise's distance from itself."""
    if len(ps) != 1 or j.ty != REAL or ps[0].ty != REAL:
        return False
    p = ps[0]
    return j.left == p.left == j.right and j.dist == p.dist


def _abs(j, ps, registry) -> bool:
    """Abstraction binds the premise's last variable, and the distance
    binds it and then its primed partner."""
    if len(ps) != 1 or j.ty[0] != "->":
        return False
    p = ps[0]
    if (len(p.ctx) != len(j.ctx) + 1 or p.ctx[:-1] != j.ctx
            or p.ctx[-1][1] != j.ty[1] or p.ty != j.ty[2]):
        return False
    arg = j.ty[1]
    return (j.left == ("lam", arg, p.left) and j.right == ("lam", arg, p.right)
            and j.dist == ("lam", arg, ("lam", difference_type(arg), p.dist)))


def _app(j, ps, registry) -> bool:
    """The function's distance takes the left argument and the argument's
    distance."""
    if len(ps) != 2:
        return False
    f, a = ps
    if f.ty[0] != "->" or a.ty != f.ty[1] or j.ty != f.ty[2]:
        return False
    return (j.left == ("app", f.left, a.left)
            and j.right == ("app", f.right, a.right)
            and j.dist == ("app", ("app", f.dist, a.dleft), a.dist))


def _projection(tag: str, side: int):
    def rule(j, ps, registry) -> bool:
        """The same projection of all three components."""
        if len(ps) != 1 or ps[0].ty[0] != "*" or j.ty != ps[0].ty[side]:
            return False
        p = ps[0]
        return (j.left, j.dist, j.right) == (
            (tag, p.left), (tag, p.dist), (tag, p.right))
    return rule


def _pair(j, ps, registry) -> bool:
    """The pairs of the two premises' components."""
    if len(ps) != 2:
        return False
    p, q = ps
    return j.ty == ("*", p.ty, q.ty) and (j.left, j.dist, j.right) == (
        ("pair", p.left, q.left), ("pair", p.dist, q.dist),
        ("pair", p.right, q.right))


_RULES = {"Lit": _lit, "Var": _var, "Conv": _conv, "Prim": _prim,
          "TransReal": _trans_real, "QuasiReflReal": _quasi_refl_real,
          "Abs": _abs, "App": _app, "Fst": _projection("fst", 1),
          "Snd": _projection("snd", 2), "Pair": _pair}
