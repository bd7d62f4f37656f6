"""Formula evaluation by walking the tree: the reference that
``logic.evaluate`` is tested against.

Every quantified position copies the assignment and evaluates the body
again, one tuple at a time.  It shares no code with the library's
evaluator beyond the formula classes and ``free_vars``.
"""

from gradedmodels.logic import Atom, BinOp, Const, Quant, free_vars


def evaluate_reference(structure, formula, assignment=None) -> int:
    """The rank of a formula in a structure under an assignment."""
    chain = structure.chain
    n = len(structure.universe)
    preds = dict(zip((p for p, _ in structure.signature.predicates), structure.pred_tables))
    env = {}
    for var, eid in (assignment or {}).items():
        if eid not in structure.positions:
            raise ValueError(f"unknown element {eid!r} assigned to {var!r}")
        env[var] = structure.positions[eid]

    def ev(f, env):
        if isinstance(f, Atom):
            if f.pred not in preds:
                raise ValueError(f"symbol {f.pred!r} not interpreted in structure")
            flat = 0
            for a in f.args:
                flat = flat * n + env[a.name]
            return preds[f.pred][flat]
        if isinstance(f, Const):
            if f.kind == "0":
                return chain.zero
            if f.kind == "1":
                return chain.one
            if f.kind == "bot":
                return chain.bot
            return chain.top
        if isinstance(f, BinOp):
            a = ev(f.left, env)
            b = ev(f.right, env)
            if f.op == "&":
                return min(a, b)
            if f.op == "|":
                return max(a, b)
            if f.op == "*":
                return chain.conj_table[a][b]
            return chain.res_table[a][b]
        if isinstance(f, Quant):
            values = []
            for p in range(n):
                inner = dict(env)
                inner[f.var] = p
                values.append(ev(f.body, inner))
            if f.kind == "forall":
                return min(values, default=chain.top)
            return max(values, default=chain.bot)
        raise TypeError(f"not a formula: {f!r}")

    missing = free_vars(formula) - set(env)
    if missing:
        raise ValueError(f"unbound free variables: {sorted(missing)}")
    return ev(formula, env)
