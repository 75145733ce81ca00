# A sequence of resolutions only ever selects an intersection of the
# original relations.  The index function names which one, walking the
# sequence backwards and absorbing every group that touches the target.

from epiresolve import (
    as_premodel,
    delta,
    fig1,
    group_key,
    iterated_relation,
    resolve,
)


def show(target, sequence):
    d = delta(target, sequence)
    seq = " ; ".join("{" + group_key(g) + "}" for g in sequence) or "(empty)"
    print(f"target {{{group_key(target)}}} after {seq}  ->  {{{group_key(d)}}}")


show({"1"}, [{"1", "2"}])                 # the target is swallowed
show({"3"}, [{"1", "2"}])                 # a disjoint update passes by
show({"2"}, [{"1", "2"}, {"1", "3"}])     # the later update misses {2}, the earlier one lands
show({"1"}, [{"1"}, {"2", "3"}, {"1", "3"}])  # couplings chain through later groups

# The index is not bookkeeping: it names the relation an actual sequence
# of updates produces.  Run the updates on the embedded model and compare.
m = fig1()
pre = as_premodel(m)
for g in [{"1", "2"}]:
    pre = resolve(pre, g)  # a pre-model's update, since pre is one
direct = iterated_relation(m, [{"1", "2"}], "1")
print("\nagent 1 after updating:", pre.relations["1"].sorted_blocks())
print("computed in place:      ", direct.sorted_blocks())
print("equal:", pre.relations["1"] == direct)
