// Abstract source/sink placement models for tree-level comparisons
// (Krishnamachari et al.'s event-radius and random-sources models, §1/§6,
// plus the paper's corner placement).
#pragma once

#include <vector>

#include "net/topology.hpp"
#include "net/vec2.hpp"
#include "sim/random.hpp"
#include "trees/graph.hpp"

namespace wsn::trees {

/// A graph-level experiment instance: who talks to whom, no packet dynamics.
struct AbstractInstance {
  Vertex sink = kNoVertex;
  std::vector<Vertex> sources;
};

/// Event-radius model: an event occurs uniformly at random in the field and
/// every node within `sensing_radius` of it is a source. The sink is a
/// uniformly random non-source node. May return zero sources if the event
/// lands in an empty region — callers should retry.
AbstractInstance make_event_radius_instance(const net::Topology& topo,
                                            double sensing_radius,
                                            sim::Rng& rng);

/// Random-sources model: `k` distinct random nodes are sources; the sink is
/// a random node not among them.
AbstractInstance make_random_sources_instance(const net::Topology& topo,
                                              std::size_t k, sim::Rng& rng);

/// The paper's §5.1 placement: `k` sources from nodes inside `source_rect`
/// (80×80 m bottom-left corner) and a sink inside `sink_rect` (36×36 m
/// top-right corner). Falls back to the nearest nodes when a rect holds too
/// few nodes; the sink is never one of the sources while another node is
/// left.
AbstractInstance make_corner_instance(const net::Topology& topo,
                                      std::size_t k, net::Rect source_rect,
                                      net::Rect sink_rect, sim::Rng& rng);

}  // namespace wsn::trees
