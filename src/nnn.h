// Umbrella header for the Neutral Net Neutrality library.
//
// Pulls in the full public API. Fine-grained targets exist for every
// module (include "cookies/verifier.h" etc. and link the matching
// nnn_* library) — this header is for examples, prototypes, and
// downstream code that wants everything.
//
// Layering (lower layers never include higher ones):
//
//   util  ->  crypto, json, net  ->  cookies  ->  server, dataplane,
//   baselines, sim  ->  workload, boost_lane  ->  studies
#pragma once

// Foundations.
#include "util/base64.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/fmt.h"
#include "util/hex.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

// Crypto substrate.
#include "crypto/constant_time.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/uuid.h"

// Control-plane JSON.
#include "json/json.h"

// Packet substrate.
#include "net/five_tuple.h"
#include "net/http.h"
#include "net/ip.h"
#include "net/mctls.h"
#include "net/packet.h"
#include "net/tls.h"
#include "net/wire.h"

// The paper's core: network cookies.
#include "cookies/ack_monitor.h"
#include "cookies/cookie.h"
#include "cookies/delegation.h"
#include "cookies/descriptor.h"
#include "cookies/generator.h"
#include "cookies/replay_cache.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"

// The well-known cookie server and its control plane.
#include "server/audit.h"
#include "server/compliance.h"
#include "server/cookie_server.h"
#include "server/discovery.h"
#include "server/json_api.h"

// Dataplane.
#include "dataplane/flow_table.h"
#include "dataplane/hw_filter.h"
#include "dataplane/middlebox.h"
#include "dataplane/qos.h"
#include "dataplane/service_registry.h"
#include "dataplane/zero_rating.h"

// Threaded dataplane: the one steering front-end (§4.6 scale-out).
#include "runtime/dataplane.h"

// Baseline mechanisms (§3).
#include "baselines/diffserv.h"
#include "baselines/dpi.h"
#include "baselines/oob.h"

// Simulator.
#include "sim/event_loop.h"
#include "sim/host.h"
#include "sim/link.h"
#include "sim/nat.h"
#include "sim/tcp.h"

// Workloads.
#include "workload/apps.h"
#include "workload/packet_gen.h"
#include "workload/page_load.h"
#include "workload/trace.h"
#include "workload/websites.h"

// The Boost / AnyLink services.
#include "boost_lane/agent.h"
#include "boost_lane/anylink.h"
#include "boost_lane/browser.h"
#include "boost_lane/capacity_probe.h"
#include "boost_lane/daemon.h"
#include "boost_lane/home_topology.h"

// The paper's studies and experiments.
#include "studies/accuracy.h"
#include "studies/deployment.h"
#include "studies/fct_experiment.h"
#include "studies/properties.h"
#include "studies/survey.h"
