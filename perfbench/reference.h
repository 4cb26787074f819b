// A fixed reference workload that measures how fast the host is running
// right now, independently of the simulator.
//
// On a shared host, a single-threaded run's host time drifts by a third or
// more over minutes as other tenants contend for caches and memory, and
// the drift hits cache- and allocation-heavy code such as the simulator's
// event loop hardest. The reference kernel does the same kind of work (a
// binary-heap event queue, a hash map, small heap objects and scattered
// reads over a few MiB) but never calls the simulator, so a change to the
// simulator leaves its time alone. perfbench/run.py divides each run's host
// time by the reference time measured around it.
#pragma once

namespace perfbench {

/// Runs the reference kernel once (15-22 ms on a shared 4-core Xeon VM) and
/// returns its host seconds. Deterministic: the same work on every call.
double ReferenceSeconds();

}  // namespace perfbench
