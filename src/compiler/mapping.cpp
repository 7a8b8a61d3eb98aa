#include "compiler/mapping.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qccd
{

std::string
mappingPolicyName(MappingPolicy policy)
{
    switch (policy) {
      case MappingPolicy::Packed: return "packed";
      case MappingPolicy::Balanced: return "balanced";
    }
    throw InternalError("unknown MappingPolicy");
}

MappingPolicy
mappingPolicyFromName(const std::string &name)
{
    if (name == "packed") return MappingPolicy::Packed;
    if (name == "balanced") return MappingPolicy::Balanced;
    throw ConfigError("unknown mapping policy '" + name +
                      "' (expected packed or balanced)");
}

std::vector<QubitId>
firstUseOrder(const Circuit &circuit)
{
    const int n = circuit.numQubits();
    const int unused = -1;
    std::vector<int> first(n, unused);
    int stamp = 0;
    for (const Gate &g : circuit.gates()) {
        const int arity = opArity(g.op);
        if (arity >= 1 && first[g.q0] == unused)
            first[g.q0] = stamp++;
        if (arity == 2 && first[g.q1] == unused)
            first[g.q1] = stamp++;
    }

    std::vector<QubitId> order(n);
    for (QubitId q = 0; q < n; ++q)
        order[q] = q;
    std::stable_sort(order.begin(), order.end(),
                     [&](QubitId a, QubitId b) {
                         const int fa = first[a] == unused ? stamp + a
                                                           : first[a];
                         const int fb = first[b] == unused ? stamp + b
                                                           : first[b];
                         return fa < fb;
                     });
    return order;
}

InitialMapping
mapQubits(const Circuit &circuit, const Topology &topo, int buffer_slots,
          MappingPolicy policy)
{
    return mapQubitsInOrder(firstUseOrder(circuit), topo, buffer_slots,
                            policy);
}

InitialMapping
mapQubitsInOrder(const std::vector<QubitId> &order, const Topology &topo,
                 int buffer_slots, MappingPolicy policy)
{
    fatalUnless(buffer_slots >= 0, "buffer slots must be non-negative");
    const int n = static_cast<int>(order.size());
    const int traps = topo.trapCount();
    if (n > topo.totalCapacity()) [[unlikely]]
        throw ConfigError("application does not fit on the device: " +
                          std::to_string(n) + " qubits > capacity " +
                          std::to_string(topo.totalCapacity()));

    // Shrink the buffer until the program fits with it applied uniformly.
    int buffer = buffer_slots;
    auto usable = [&](int buf) {
        int total = 0;
        for (TrapId t = 0; t < traps; ++t) {
            const int cap = topo.node(topo.trapNode(t)).capacity;
            total += std::max(cap - buf, 0);
        }
        return total;
    };
    while (buffer > 0 && usable(buffer) < n)
        --buffer;

    InitialMapping mapping;
    mapping.effectiveBuffer = buffer;
    mapping.trapOf.assign(n, kInvalidId);
    mapping.chainOrder.assign(traps, {});

    // Per-trap fill targets: either capacity-minus-buffer (packed) or
    // an even division of the program across all traps (balanced, still
    // respecting per-trap capacity for heterogeneous devices).
    std::vector<int> fill(traps, 0);
    if (policy == MappingPolicy::Packed) {
        for (TrapId t = 0; t < traps; ++t) {
            const int cap = topo.node(topo.trapNode(t)).capacity;
            fill[t] = std::max(cap - buffer, 0);
        }
    } else {
        int remaining = n;
        for (TrapId t = 0; t < traps; ++t) {
            const int cap = topo.node(topo.trapNode(t)).capacity;
            const int share = (remaining + (traps - t) - 1) / (traps - t);
            fill[t] = std::min(share, std::max(cap - buffer, 0));
            remaining -= fill[t];
        }
        // Capacity clamping can leave a remainder; spill it into traps
        // with spare buffered room.
        for (TrapId t = 0; t < traps && remaining > 0; ++t) {
            const int cap = topo.node(topo.trapNode(t)).capacity;
            const int extra =
                std::min(remaining, std::max(cap - buffer, 0) - fill[t]);
            fill[t] += extra;
            remaining -= extra;
        }
        panicUnless(remaining == 0,
                    "balanced mapping overflow despite capacity check");
    }

    TrapId t = 0;
    for (QubitId q : order) {
        panicUnless(q >= 0 && q < n && mapping.trapOf[q] == kInvalidId,
                    "mapping order is not a permutation of the qubits");
        while (t < traps &&
               static_cast<int>(mapping.chainOrder[t].size()) >= fill[t])
            ++t;
        panicUnless(t < traps, "mapping overflow despite capacity check");
        mapping.chainOrder[t].push_back(q);
        mapping.trapOf[q] = t;
    }
    return mapping;
}

} // namespace qccd
