"""Brute-force model checking at the formula level, independent of the
clause pipeline, used to cross-check Skolemization equisatisfiability and
entailment labels in tests; and the oracle's earlier grounding and DPLL at
the clause level, kept verbatim as references for `herbrand` and for the
engine's ground decision."""

from itertools import product
from typing import Iterable

from nlprover.herbrand import OracleOverflowError
from nlprover.logic import Clause, Const, Func, Var, clause_consts, clause_vars, subst_clause
from nlprover.normalize import And, Atom, Exists, ForAll, Implies, Not


def formula_consts(f):
    out = []

    def walk(g):
        if isinstance(g, Atom):
            for a in g.args:
                if isinstance(a, Const) and a.name not in out:
                    out.append(a.name)
        elif isinstance(g, Not):
            walk(g.f)
        elif isinstance(g, (And, Implies)) or type(g).__name__ == "Or":
            walk(g.a)
            walk(g.b)
        else:
            walk(g.body)

    walk(f)
    return out


def formula_preds(f):
    out = {}

    def walk(g):
        if isinstance(g, Atom):
            out.setdefault((g.pred, len(g.args)))
        elif isinstance(g, Not):
            walk(g.f)
        elif isinstance(g, (And, Implies)) or type(g).__name__ == "Or":
            walk(g.a)
            walk(g.b)
        else:
            walk(g.body)

    walk(f)
    return list(out)


def eval_formula(f, model, domain, env=None):
    """Truth of f in a finite model. `model` is the set of true ground atoms
    as (pred, arg-name-tuple); quantifiers range over `domain` (names)."""
    env = env or {}
    if isinstance(f, Atom):
        args = []
        for a in f.args:
            if isinstance(a, Var):
                args.append(env[a])
            elif isinstance(a, Const):
                args.append(a.name)
            else:
                raise ValueError("function terms not supported here")
        return (f.pred, tuple(args)) in model
    if isinstance(f, Not):
        return not eval_formula(f.f, model, domain, env)
    if isinstance(f, And):
        return eval_formula(f.a, model, domain, env) and eval_formula(f.b, model, domain, env)
    if isinstance(f, Implies):
        return (not eval_formula(f.a, model, domain, env)) or eval_formula(f.b, model, domain, env)
    if type(f).__name__ == "Or":
        return eval_formula(f.a, model, domain, env) or eval_formula(f.b, model, domain, env)
    if isinstance(f, ForAll):
        return all(eval_formula(f.body, model, domain, {**env, f.var: d}) for d in domain)
    if isinstance(f, Exists):
        return any(eval_formula(f.body, model, domain, {**env, f.var: d}) for d in domain)
    raise TypeError(f"unknown node {f!r}")


def formulas_satisfiable(formulas, n_witnesses=2):
    """Exhaustive finite-model search over the formulas' constants plus a few
    witness elements. Adequate for the quantifier shapes the grammar emits
    (no nesting of exists under forall)."""
    domain = []
    preds = {}
    for f in formulas:
        for c in formula_consts(f):
            if c not in domain:
                domain.append(c)
        for p in formula_preds(f):
            preds.setdefault(p)
    domain = domain + [f"w{i}" for i in range(n_witnesses)]
    atoms = [
        (pred, args)
        for pred, arity in preds
        for args in product(domain, repeat=arity)
    ]
    assert len(atoms) <= 22, "model space too large for a brute-force test"
    for bits in product((False, True), repeat=len(atoms)):
        model = {a for a, b in zip(atoms, bits) if b}
        if all(eval_formula(f, model, domain) for f in formulas):
            return True
    return False


# The oracle's earlier `_ground`, kept verbatim: it grounds the whole clause
# list at once by substituting each assignment into the clause and numbering
# atoms as met.
def ref_ground(clauses: Iterable[Clause], max_atoms: int) -> list[frozenset]:
    clauses = list(clauses)
    consts: dict[str, Const] = {}
    preds: dict[tuple[str, int], None] = {}
    for c in clauses:
        for lit in c.literals:
            preds.setdefault((lit.pred, len(lit.args)))
            for a in lit.args:
                if isinstance(a, Func):
                    raise OracleOverflowError(
                        "oracle_overflow: function terms are outside oracle reach"
                    )
        for k in clause_consts(c):
            consts.setdefault(k.name, k)
    domain = list(consts.values()) or [Const("c0")]
    n_atoms = sum(len(domain) ** arity for _, arity in preds)
    if n_atoms > max_atoms:
        raise OracleOverflowError(
            f"oracle_overflow: {n_atoms} ground atoms exceeds the cap of {max_atoms}"
        )
    atom_idx: dict = {}

    def index_of(pred: str, args: tuple) -> int:
        key = (pred, args)
        if key not in atom_idx:
            atom_idx[key] = len(atom_idx) + 1
        return atom_idx[key]

    ground: list[frozenset] = []
    seen = set()
    for c in clauses:
        vs = clause_vars(c)
        for assignment in product(domain, repeat=len(vs)):
            g = subst_clause(dict(zip(vs, assignment)), c)
            lits = set()
            tautology = False
            for lit in g.literals:
                idx = index_of(lit.pred, lit.args)
                signed = idx if lit.positive else -idx
                if -signed in lits:
                    tautology = True
                    break
                lits.add(signed)
            if tautology:
                continue
            fs = frozenset(lits)
            if fs not in seen:
                seen.add(fs)
                ground.append(fs)
    return ground


# The oracle's earlier `_force` and `_dpll`, kept verbatim: they rescan and
# copy the whole ground list for every forced literal.
def _force(clauses: list[frozenset], lit: int) -> list[frozenset]:
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            c = c - {-lit}
        out.append(c)
    return out


def ref_dpll(clauses: list[frozenset]) -> bool:
    while True:
        if any(not c for c in clauses):
            return False
        unit = next((next(iter(c)) for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _force(clauses, unit)
    if not clauses:
        return True
    v = min(abs(l) for c in clauses for l in c)
    return ref_dpll(_force(clauses, v)) or ref_dpll(_force(clauses, -v))
