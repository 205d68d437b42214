// The consolidated public API: one include for everything a driver binary
// needs.
//
//   #include "bc/api.hpp"
//
//   bcdyn::sim::Runtime rt;  // observability + chaos state, configured here
//   bcdyn::bc::Session session(graph, {.engine = ...}, rt);
//   bcdyn::bc::Service service(graph, options, service_config, rt);
//
// The supported public surface is:
//
//   bc::Session   - the single-caller front door: one analytic recording
//                   into the sim::Runtime it is given (bc/session.hpp).
//   bc::Service   - the multi-client serving layer: update coalescing,
//                   epoch-versioned snapshot reads, admission control
//                   (bc/service.hpp + bc/snapshot_store.hpp).
//   bc::Options   - everything configurable about the analytic.
//   sim::Runtime  - the metrics, tracer, telemetry, hazard detector and
//                   fault injector a Session or Service records into
//                   (gpusim/runtime.hpp).
//   UpdateOutcome - the one outcome type for every analytic update.
//   EngineKind / parse_engine_flag / engine_from_string / to_string -
//                   the engine vocabulary and its CLI spelling.
//   PipelineResult / BatchConfig - the batched/pipelined ingest results.
//
// DynamicBc (bc/dynamic_bc.hpp, re-exported through Session's header) is
// the bare analytic underneath: constructing it directly is an
// implementation detail for engine-internal code and tests. New callers
// go through Session or Service.
#pragma once

#include "bc/batch_update.hpp"
#include "bc/pipeline.hpp"
#include "bc/service.hpp"
#include "bc/session.hpp"
#include "bc/snapshot_store.hpp"
#include "bc/update_outcome.hpp"
