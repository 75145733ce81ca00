# Bisimilar points are indistinguishable by any formula, and resolution
# preserves bisimilarity.  Trans-bisimulations relate genuine models to
# pre-models, whose group relations are stored rather than derived.

from epiresolve import (
    as_premodel,
    bisimilar_pre,
    duplicate_state,
    fig1,
    fig1_core,
    is_pre_bisimulation,
    parse,
    resolve,
    satisfies,
    trans_bisimilar,
    witness_to_pairs,
)

pre = as_premodel(fig1())

# Duplicating a state produces an obviously bisimilar pre-model: the copy
# joins every block its original lives in.
dup = duplicate_state(pre, "t")
z = bisimilar_pre(pre, "t", dup, "t'")
print("witness linking t with its copy:", witness_to_pairs(z))

# The same witness survives a resolution, checked clause by clause.
print("witness still valid after resolving {1,2}:",
      is_pre_bisimulation(resolve(pre, {"1", "2"}), resolve(dup, {"1", "2"}), z) == [])

# Bisimilar points agree on everything, resolution operators included;
# satisfies gives pseudo satisfaction on a pre-model.
f = parse("R{1,2} C{1,2} p", pre.agents)
print(f"{f} at t / t':",
      satisfies(pre, "t", f), "/", satisfies(dup, "t'", f))

# A model embeds into its own pre-model, trans-bisimilarly.
m = fig1()
print("\nembedding is trans-bisimilar:", trans_bisimilar(m, "t", pre, "t") is not None)

# The core is NOT trans-bisimilar to the original: at t the core already
# satisfies K1 p, the original does not, and invariance forbids a witness.
print("core vs original at t:", trans_bisimilar(fig1_core(), "t", pre, "t"))
