//! HTTP route handlers wiring the registry, job store, and metrics into a
//! `warp` router.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mis_core::AlgorithmConfig;
use mis_graph::Graph;
use mis_sim::builtin_registry;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use warp::{PathParams, Request, Response, Router};

use crate::api::{
    AlgorithmInfo, ApiError, CreateGraphRequest, JobRequest, JobStatus, MetricsReport,
    PatchEdgesRequest, PatchResponse,
};
use crate::jobs::{ndjson_stream, SubmitError};
use crate::journal::Record;
use crate::service::AppState;

/// `Retry-After` seconds suggested on shed-load (429) responses.
const RETRY_AFTER_SHED: u64 = 1;
/// `Retry-After` seconds suggested on unavailable (503) responses.
const RETRY_AFTER_UNAVAILABLE: u64 = 5;

fn json<T: Serialize>(status: u16, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(status, body),
        Err(e) => error(500, format!("serialization failed: {e}")),
    }
}

fn error(status: u16, message: impl Into<String>) -> Response {
    ApiError {
        status,
        message: message.into(),
        retry_after: None,
    }
    .into_response()
}

fn submit_error(e: SubmitError) -> Response {
    match e {
        SubmitError::Draining => {
            ApiError::unavailable(e.to_string(), RETRY_AFTER_UNAVAILABLE).into_response()
        }
        SubmitError::QueueFull { .. } => {
            ApiError::too_many_requests(e.to_string(), RETRY_AFTER_SHED).into_response()
        }
        SubmitError::UnknownAlgorithm(_) => {
            ApiError::bad_request(format!("{e}; see GET /v1/algorithms")).into_response()
        }
        SubmitError::Persistence(_) => {
            ApiError::unavailable(e.to_string(), RETRY_AFTER_UNAVAILABLE).into_response()
        }
    }
}

/// Journals `record` (fsyncing it) strictly before the caller acknowledges
/// the mutation; `Err` is the 503 the handler must answer with instead.
fn journal_ack(state: &AppState, record: Record) -> Result<(), Response> {
    match &state.journal {
        Some(journal) => journal.append(&record).map(|_| ()).map_err(|e| {
            ApiError::unavailable(
                format!("persistence unavailable: {e}"),
                RETRY_AFTER_UNAVAILABLE,
            )
            .into_response()
        }),
        None => Ok(()),
    }
}

fn parse_body<T: Deserialize>(request: &Request) -> Result<T, Response> {
    let text = request
        .text()
        .map_err(|_| error(400, "request body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| error(400, format!("invalid request body: {e}")))
}

fn graph_id(params: &PathParams) -> Result<u64, Response> {
    params.id("id").ok_or_else(|| error(400, "invalid id"))
}

/// Capability metadata for every registry algorithm, derived by probing one
/// tiny instance per factory (capabilities live on instances, not factories).
pub fn algorithm_catalog() -> Vec<AlgorithmInfo> {
    let probe_graph = Graph::from_edges(2, [(0, 1)]).expect("probe graph");
    let config = AlgorithmConfig {
        init: mis_core::init::InitStrategy::Random,
        execution: mis_core::ExecutionMode::Sequential,
        strategy: mis_core::RoundStrategy::Auto,
        counter_seed: 0,
    };
    builtin_registry()
        .factories()
        .map(|factory| {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
            let caps = factory.init(&probe_graph, &config, &mut rng).capabilities();
            AlgorithmInfo {
                key: factory.key().to_string(),
                description: factory.description().to_string(),
                communication_model: factory.communication_model().label().to_string(),
                supports_topology_change: caps.topology_change,
                supports_parallel: caps.parallel,
                supports_partial_activation: caps.partial_activation,
                supports_trace: caps.trace,
            }
        })
        .collect()
}

/// Builds the full route table over `state` (middleware is attached by the
/// caller once metrics exist).
pub fn build(state: &Arc<AppState>) -> Router {
    let mut router = Router::new();

    // --- graphs -----------------------------------------------------------
    let s = Arc::clone(state);
    router = router.post("/v1/graphs", move |req, _| {
        let body: CreateGraphRequest = match parse_body(req) {
            Ok(body) => body,
            Err(resp) => return resp,
        };
        let graph = match body.source.materialize(body.seed) {
            Ok(graph) => graph,
            Err(e) => return error(400, format!("invalid graph: {e}")),
        };
        let name = body.name.clone().unwrap_or_else(|| body.source.label());
        let entry = s.graphs.insert(name, body.source.label(), graph);
        let record = Record::GraphCreated {
            id: entry.id,
            name: entry.name.clone(),
            create: body,
        };
        if let Err(resp) = journal_ack(&s, record) {
            // Never acknowledge what the journal did not take.
            s.graphs.remove(entry.id);
            return resp;
        }
        s.maybe_snapshot();
        json(201, &entry.info())
    });

    let s = Arc::clone(state);
    router = router.get("/v1/graphs", move |_, _| {
        let infos: Vec<_> = s.graphs.list().iter().map(|e| e.info()).collect();
        json(200, &infos)
    });

    let s = Arc::clone(state);
    router = router.get("/v1/graphs/:id", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.graphs.get(id) {
            Some(entry) => json(200, &entry.info()),
            None => error(404, format!("no graph {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.delete("/v1/graphs/:id", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.graphs.remove(id) {
            Some(_) => {
                if let Err(resp) = journal_ack(&s, Record::GraphDeleted { id }) {
                    return resp;
                }
                s.maybe_snapshot();
                Response::new(204)
            }
            None => error(404, format!("no graph {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.patch("/v1/graphs/:id/edges", move |req, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let body: PatchEdgesRequest = match parse_body(req) {
            Ok(body) => body,
            Err(resp) => return resp,
        };
        if body.is_empty() {
            return error(400, "empty patch: nothing to apply");
        }
        let delta = body.delta();
        let (committed, version) = match s.graphs.apply_delta(id, &delta) {
            None => return error(404, format!("no graph {id}")),
            Some(Err(e)) => return error(400, format!("invalid delta: {e}")),
            Some(Ok(applied)) => applied,
        };
        let record = Record::GraphPatched {
            id,
            version,
            patch: body,
        };
        if let Err(resp) = journal_ack(&s, record) {
            return resp;
        }
        s.maybe_snapshot();
        // Forward the delta to every live job on this graph whose snapshot
        // predates the patch; jobs whose algorithm cannot follow topology
        // changes are counted as skipped.
        let mut notified = 0;
        let mut skipped = 0;
        for job in s.jobs.jobs_on_graph(id) {
            match job.push_delta(&delta, version) {
                Some(true) => notified += 1,
                Some(false) => skipped += 1,
                None => {}
            }
        }
        json(
            200,
            &PatchResponse {
                graph: id,
                version,
                old_n: committed.old_n,
                new_n: committed.new_n,
                inserted: committed.inserted.len(),
                removed: committed.removed.len(),
                jobs_notified: notified,
                jobs_skipped: skipped,
            },
        )
    });

    // --- algorithms -------------------------------------------------------
    router = router.get("/v1/algorithms", move |_, _| {
        json(200, &algorithm_catalog())
    });

    // --- jobs -------------------------------------------------------------
    let s = Arc::clone(state);
    router = router.post("/v1/jobs", move |req, _| {
        let body: JobRequest = match parse_body(req) {
            Ok(body) => body,
            Err(resp) => return resp,
        };
        let Some(entry) = s.graphs.get(body.graph) else {
            return error(404, format!("no graph {}", body.graph));
        };
        // The store journals + fsyncs the submission before the job becomes
        // visible, so this 202 is durable.
        match s.jobs.submit(entry, body) {
            Ok(job) => {
                s.maybe_snapshot();
                json(202, &job.info())
            }
            Err(e) => submit_error(e),
        }
    });

    let s = Arc::clone(state);
    router = router.post("/v1/jobs/:id/retry", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let Some(job) = s.jobs.get(id) else {
            return error(404, format!("no job {id}"));
        };
        if job.status() != JobStatus::Interrupted {
            return ApiError::conflict(format!(
                "job {id} is {:?}, not Interrupted; only interrupted jobs can be retried",
                job.status()
            ))
            .into_response();
        }
        let request = job.request.clone();
        let Some(entry) = s.graphs.get(request.graph) else {
            return ApiError::conflict(format!(
                "graph {} of interrupted job {id} no longer exists",
                request.graph
            ))
            .into_response();
        };
        match s.jobs.submit(entry, request) {
            Ok(fresh) => json(202, &fresh.info()),
            Err(e) => submit_error(e),
        }
    });

    let s = Arc::clone(state);
    router = router.get("/v1/jobs", move |_, _| {
        let infos: Vec<_> = s.jobs.list().iter().map(|j| j.info()).collect();
        json(200, &infos)
    });

    let s = Arc::clone(state);
    router = router.get("/v1/jobs/:id", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.jobs.get(id) {
            Some(job) => json(200, &job.info()),
            None => error(404, format!("no job {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.delete("/v1/jobs/:id", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.jobs.get(id) {
            Some(job) => {
                job.cancel();
                json(202, &job.info())
            }
            None => error(404, format!("no job {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.get("/v1/jobs/:id/events", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.jobs.get(id) {
            Some(job) => Response::stream(200, "application/x-ndjson", ndjson_stream(job.events())),
            None => error(404, format!("no job {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.get("/v1/jobs/:id/mis", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let Some(job) = s.jobs.get(id) else {
            return error(404, format!("no job {id}"));
        };
        let Some(mis) = job.mis() else {
            return error(
                409,
                format!("job {id} has no result yet (status {:?})", job.status()),
            );
        };
        // Stream the vertex ids as NDJSON, one chunk per id block.
        let mut blocks = mis
            .chunks(4096)
            .map(|block| {
                block
                    .iter()
                    .map(|v| format!("{v}\n"))
                    .collect::<String>()
                    .into_bytes()
            })
            .collect::<Vec<_>>()
            .into_iter();
        Response::stream(200, "application/x-ndjson", Box::new(move || blocks.next()))
    });

    // --- metrics & admin --------------------------------------------------
    let s = Arc::clone(state);
    router = router.get("/v1/metrics", move |_, _| {
        let report = MetricsReport {
            uptime_micros: s.started.elapsed().as_micros() as u64,
            endpoints: s.metrics().map(|m| m.report()).unwrap_or_default(),
            jobs: s.jobs.gauges(),
        };
        json(200, &report)
    });

    router = router.get("/v1/healthz", move |_, _| {
        Response::json(200, "{\"status\":\"ok\"}")
    });

    let s = Arc::clone(state);
    router = router.post("/v1/admin/shutdown", move |_, _| {
        s.shutdown_requested.store(true, Ordering::SeqCst);
        Response::json(202, "{\"status\":\"shutdown requested\"}")
    });

    router
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_whole_registry() {
        let catalog = algorithm_catalog();
        assert_eq!(catalog.len(), builtin_registry().len());
        let two_state = catalog.iter().find(|a| a.key == "two-state").unwrap();
        assert!(two_state.supports_topology_change);
        assert!(two_state.supports_trace);
        let greedy = catalog.iter().find(|a| a.key == "greedy").unwrap();
        assert!(!greedy.supports_trace);
    }

    /// The `/v1/algorithms` capability table, plus the fault-injection,
    /// Byzantine and states-per-vertex facts the catalog does not carry,
    /// pinned per builtin key. Fault and Byzantine support are probed by
    /// behaviour: a total fault changes some state, and a Byzantine override
    /// that flips vertex 0's blackness reports a change.
    #[test]
    fn capability_table_is_pinned() {
        const FULL: &str = "full-state-exchange";
        // key, model, topology_change, parallel, partial_activation, trace,
        // fault_injection, byzantine, states_per_vertex
        type Row = (
            &'static str,
            &'static str,
            bool,
            bool,
            bool,
            bool,
            bool,
            bool,
            usize,
        );
        #[rustfmt::skip]
        let expected: [Row; 10] = [
            ("beeping-two-state",     "beeping",         false, false, true,  true,  true,  true,  2),
            ("greedy",                "centralized",     false, false, false, false, false, false, usize::MAX),
            ("luby",                  "message-passing", false, false, false, false, false, false, usize::MAX),
            ("random-priority",       "message-passing", false, false, false, true,  true,  false, 2 << 32),
            ("sequential-selfstab",   "centralized",     false, false, false, false, false, false, 2),
            ("stone-age-three-color", "stone-age",       false, false, false, true,  true,  true,  18),
            ("stone-age-three-state", "stone-age",       false, false, true,  true,  true,  true,  3),
            ("three-color",           FULL,              true,  true,  false, true,  true,  true,  18),
            ("three-state",           FULL,              true,  true,  true,  true,  true,  true,  3),
            ("two-state",             FULL,              true,  true,  true,  true,  true,  true,  2),
        ];
        let catalog = algorithm_catalog();
        let keys: Vec<&str> = catalog.iter().map(|a| a.key.as_str()).collect();
        let expected_keys: Vec<&str> = expected.iter().map(|row| row.0).collect();
        assert_eq!(keys, expected_keys);

        let mut setup = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let g = mis_graph::generators::gnp(64, 0.1, &mut setup);
        let config = AlgorithmConfig {
            init: mis_core::init::InitStrategy::Random,
            execution: mis_core::ExecutionMode::Sequential,
            strategy: mis_core::RoundStrategy::Auto,
            counter_seed: 0,
        };
        for (info, row) in catalog.iter().zip(expected) {
            let (key, model, topology, parallel, partial, trace, fault, byzantine, states) = row;
            assert_eq!(info.communication_model, model, "{key}");
            assert_eq!(info.supports_topology_change, topology, "{key}");
            assert_eq!(info.supports_parallel, parallel, "{key}");
            assert_eq!(info.supports_partial_activation, partial, "{key}");
            assert_eq!(info.supports_trace, trace, "{key}");

            let factory = builtin_registry().get(key).unwrap();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
            let mut alg = factory.init(&g, &config, &mut rng);
            assert_eq!(alg.states_per_vertex(), states, "{key}");
            let black = alg.black_set().contains(0);
            assert_eq!(alg.set_byzantine_state(0, !black), byzantine, "{key}");
            assert_eq!(alg.inject_faults(1.0, &mut rng) > 0, fault, "{key}");
        }
    }
}
