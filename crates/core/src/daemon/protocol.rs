//! The daemon's control protocol: newline-delimited JSON, schema
//! `moteur/daemon/v1`, served over stdin/stdout or a Unix socket.
//!
//! Every request and response is one JSON object on one line. Requests
//! carry `"schema"` and `"op"`; responses echo `"op"` and report
//! `"ok"`. Responses are byte-stable for a given daemon state — the
//! `status` output in particular is pinned by tests so tooling can
//! diff it.
//!
//! | op | request fields | response fields |
//! |----|----------------|-----------------|
//! | `submit` | `tenant`, `workflow` (SCUFL XML), `inputs` (XML), `config` (preset label), `max_retries`, `continue_on_error` | `id`, `state` |
//! | `status` | `id` | full instance status |
//! | `cancel` | `id` | `id`, `state` |
//! | `list` | — | `instances`: array of statuses |
//! | `metrics` | — | daemon gauges, per-tenant families, `openmetrics` text |
//! | `drain` | — | `completed`, `running` |
//! | `shutdown` | — | `ok` (server exits after responding) |
//!
//! A request line longer than [`MAX_REQUEST_BYTES`] is answered with
//! one error response and skipped up to its newline; the session goes
//! on.

use super::{Daemon, InstanceStatus};
use crate::config::EnactorConfig;
use crate::error::MoteurError;
use crate::ft::FtConfig;
use crate::obs::json::JsonValue;
use crate::obs::json::{array, JsonObject};
use std::io::{BufRead, Read, Write};

/// Schema tag carried by every protocol message.
pub const DAEMON_SCHEMA: &str = "moteur/daemon/v1";

/// Longest request line [`serve`] reads, in bytes, newline excluded.
/// A `submit` carries whole SCUFL and input documents inline; this
/// leaves them room while bounding what one line can make the daemon
/// buffer.
pub const MAX_REQUEST_BYTES: usize = 8 << 20;

/// A parsed control request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Submit {
        tenant: String,
        workflow: String,
        inputs: String,
        config: String,
        max_retries: u32,
        continue_on_error: bool,
    },
    Status {
        id: u32,
    },
    Cancel {
        id: u32,
    },
    List,
    Metrics,
    Drain,
    Shutdown,
}

impl Request {
    /// Parse one protocol line. The schema field is mandatory so
    /// protocol drift fails loudly instead of best-effort.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = JsonValue::parse(line)?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing `schema`")?;
        if schema != DAEMON_SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (expected `{DAEMON_SCHEMA}`)"
            ));
        }
        let op = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or("missing `op`")?;
        let id = |v: &JsonValue| -> Result<u32, String> {
            v.get("id")
                .and_then(JsonValue::as_usize)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| "missing or invalid `id`".into())
        };
        match op {
            "submit" => {
                let field = |k: &str| -> Result<String, String> {
                    v.get(k)
                        .and_then(JsonValue::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("missing `{k}`"))
                };
                Ok(Request::Submit {
                    tenant: field("tenant")?,
                    workflow: field("workflow")?,
                    inputs: field("inputs")?,
                    config: v
                        .get("config")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("sp+dp")
                        .to_owned(),
                    max_retries: v
                        .get("max_retries")
                        .and_then(JsonValue::as_usize)
                        .and_then(|n| u32::try_from(n).ok())
                        .unwrap_or(EnactorConfig::default().max_job_retries),
                    continue_on_error: v
                        .get("continue_on_error")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false),
                })
            }
            "status" => Ok(Request::Status { id: id(&v)? }),
            "cancel" => Ok(Request::Cancel { id: id(&v)? }),
            "list" => Ok(Request::List),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Render the request as one protocol line (the client side).
    pub fn render(&self) -> String {
        let base = JsonObject::new().str("schema", DAEMON_SCHEMA);
        match self {
            Request::Submit {
                tenant,
                workflow,
                inputs,
                config,
                max_retries,
                continue_on_error,
            } => base
                .str("op", "submit")
                .str("tenant", tenant)
                .str("workflow", workflow)
                .str("inputs", inputs)
                .str("config", config)
                .uint("max_retries", u64::from(*max_retries))
                .bool("continue_on_error", *continue_on_error)
                .finish(),
            Request::Status { id } => base.str("op", "status").uint("id", u64::from(*id)).finish(),
            Request::Cancel { id } => base.str("op", "cancel").uint("id", u64::from(*id)).finish(),
            Request::List => base.str("op", "list").finish(),
            Request::Metrics => base.str("op", "metrics").finish(),
            Request::Drain => base.str("op", "drain").finish(),
            Request::Shutdown => base.str("op", "shutdown").finish(),
        }
    }

    fn op_name(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::Cancel { .. } => "cancel",
            Request::List => "list",
            Request::Metrics => "metrics",
            Request::Drain => "drain",
            Request::Shutdown => "shutdown",
        }
    }
}

fn respond(op: &str) -> JsonObject {
    JsonObject::new().str("schema", DAEMON_SCHEMA).str("op", op)
}

fn error_response(op: &str, message: &str) -> String {
    respond(op).bool("ok", false).str("error", message).finish()
}

fn opt_num(o: JsonObject, k: &str, v: Option<f64>) -> JsonObject {
    match v {
        Some(v) => o.num(k, v),
        None => o.raw(k, "null"),
    }
}

/// One instance status as a raw JSON object (embedded in `status` and
/// `list` responses). Field order is part of the protocol.
fn status_object(s: &InstanceStatus) -> String {
    let o = JsonObject::new()
        .uint("id", u64::from(s.id))
        .str("tenant", &s.tenant)
        .str("workflow", &s.workflow)
        .str("state", s.state.as_str())
        .num("submitted_at", s.submitted_at);
    let o = opt_num(o, "first_job_at", s.first_job_at);
    let o = opt_num(o, "finished_at", s.finished_at);
    let o = o
        .uint("inflight", s.inflight as u64)
        .uint("jobs_submitted", s.jobs_submitted as u64)
        .uint("store_hits", s.store_hits)
        .uint("store_misses", s.store_misses);
    let o = opt_num(o, "makespan_secs", s.makespan_secs);
    match &s.error {
        Some(e) => o.str("error", e),
        None => o.raw("error", "null"),
    }
    .finish()
}

fn status_response(op: &str, s: &InstanceStatus) -> String {
    respond(op)
        .bool("ok", true)
        .raw("instance", &status_object(s))
        .finish()
}

/// Apply one request to the daemon and render the response line.
pub fn apply(daemon: &mut Daemon, req: &Request) -> String {
    let op = req.op_name();
    match req {
        Request::Submit {
            tenant,
            workflow,
            inputs,
            config,
            max_retries,
            continue_on_error,
        } => {
            let Some(cfg) = EnactorConfig::preset(config) else {
                return error_response(op, &format!("unknown config `{config}`"));
            };
            let ft = FtConfig::from_legacy(*max_retries).with_continue_on_error(*continue_on_error);
            match daemon.submit(tenant, workflow, inputs, cfg, ft) {
                Ok(id) => {
                    let state = daemon.status(id).map_or("queued", |s| s.state.as_str());
                    respond(op)
                        .bool("ok", true)
                        .uint("id", u64::from(id))
                        .str("state", state)
                        .finish()
                }
                Err(e) => error_response(op, e.message()),
            }
        }
        Request::Status { id } => match daemon.status(*id) {
            Some(s) => status_response(op, &s),
            None => error_response(op, &format!("unknown instance id {id}")),
        },
        Request::Cancel { id } => {
            if daemon.cancel(*id) {
                respond(op)
                    .bool("ok", true)
                    .uint("id", u64::from(*id))
                    .str("state", "cancelled")
                    .finish()
            } else {
                error_response(op, &format!("instance {id} is unknown or already finished"))
            }
        }
        Request::List => {
            let items = daemon.list().iter().map(status_object).collect::<Vec<_>>();
            respond(op)
                .bool("ok", true)
                .raw("instances", &array(items))
                .finish()
        }
        Request::Metrics => {
            let m = daemon.metrics();
            let tenants = m
                .tenants
                .iter()
                .map(|t| {
                    JsonObject::new()
                        .str("tenant", &t.tenant)
                        .uint("running", t.running as u64)
                        .uint("queued", t.queued as u64)
                        .uint("inflight_jobs", t.inflight_jobs as u64)
                        .uint("store_hits", t.store_hits)
                        .uint("store_misses", t.store_misses)
                        .num("hit_ratio", t.hit_ratio())
                        .finish()
                })
                .collect::<Vec<_>>();
            respond(op)
                .bool("ok", true)
                .uint("running", m.running as u64)
                .uint("queued", m.queued as u64)
                .uint("succeeded", m.succeeded as u64)
                .uint("failed", m.failed as u64)
                .uint("cancelled", m.cancelled as u64)
                .uint("store_entries", m.store.entries as u64)
                .uint("store_hits", m.store.hits)
                .uint("store_misses", m.store.misses)
                .num("store_hit_ratio", m.store.hit_ratio())
                .raw("tenants", &array(tenants))
                .str("openmetrics", &crate::obs::openmetrics::render_daemon(&m))
                .finish()
        }
        Request::Drain => {
            let completed = daemon.drain();
            respond(op)
                .bool("ok", true)
                .uint("completed", completed as u64)
                .uint("running", 0)
                .finish()
        }
        Request::Shutdown => respond(op).bool("ok", true).finish(),
    }
}

/// Serve the protocol over a line-oriented transport: one request per
/// line in, one response per line out, until EOF or `shutdown`.
/// Returns whether a `shutdown` request ended the session (so a socket
/// accept loop knows to stop accepting, while a plain EOF only ends
/// the connection).
pub fn serve<R: BufRead, W: Write>(
    daemon: &mut Daemon,
    mut input: R,
    out: &mut W,
) -> std::io::Result<bool> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let cap = MAX_REQUEST_BYTES as u64 + 1;
        if (&mut input).take(cap).read_until(b'\n', &mut buf)? == 0 {
            return Ok(false);
        }
        let parsed = if buf.len() as u64 == cap && buf.last() != Some(&b'\n') {
            input.skip_until(b'\n')?;
            Err(format!(
                "request longer than {MAX_REQUEST_BYTES} bytes; skipped"
            ))
        } else {
            match std::str::from_utf8(&buf).map(str::trim) {
                Ok("") => continue,
                Ok(line) => Request::parse(line),
                Err(_) => Err("request is not valid UTF-8".to_string()),
            }
        };
        let (response, shutdown) = match parsed {
            Ok(req) => {
                let shutdown = matches!(req, Request::Shutdown);
                (apply(daemon, &req), shutdown)
            }
            Err(e) => (error_response("error", &e), false),
        };
        writeln!(out, "{response}")?;
        out.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Round-trip every `moteur/daemon/v1` request type through render +
/// parse, so protocol drift fails fast in CI (`moteur daemon
/// --check-protocol`). Returns the op names checked.
pub fn check_protocol() -> Result<Vec<&'static str>, MoteurError> {
    let samples = [
        Request::Submit {
            tenant: "alice".into(),
            workflow: "<scufl name=\"w\"></scufl>".into(),
            inputs: "<inputdata></inputdata>".into(),
            config: "sp+dp".into(),
            max_retries: 5,
            continue_on_error: true,
        },
        Request::Status { id: 7 },
        Request::Cancel { id: 7 },
        Request::List,
        Request::Metrics,
        Request::Drain,
        Request::Shutdown,
    ];
    let mut checked = Vec::new();
    for sample in samples {
        let line = sample.render();
        let back = Request::parse(&line)
            .map_err(|e| MoteurError::new(format!("{}: {e}", sample.op_name())))?;
        if back != sample {
            return Err(MoteurError::new(format!(
                "op `{}` did not round-trip: {line}",
                sample.op_name()
            )));
        }
        checked.push(sample.op_name());
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_round_trips() {
        let ops = check_protocol().expect("protocol is self-consistent");
        assert_eq!(
            ops,
            vec!["submit", "status", "cancel", "list", "metrics", "drain", "shutdown"]
        );
    }

    #[test]
    fn parse_rejects_wrong_schema_and_unknown_op() {
        let err = Request::parse(r#"{"schema":"moteur/daemon/v0","op":"list"}"#).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        let err =
            Request::parse(&format!(r#"{{"schema":"{DAEMON_SCHEMA}","op":"zap"}}"#)).unwrap_err();
        assert!(err.contains("unknown op"), "{err}");
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn submit_defaults_follow_the_one_shot_cli() {
        let line = format!(
            r#"{{"schema":"{DAEMON_SCHEMA}","op":"submit","tenant":"t","workflow":"<w/>","inputs":"<i/>"}}"#
        );
        let req = Request::parse(&line).unwrap();
        let Request::Submit {
            config,
            max_retries,
            continue_on_error,
            ..
        } = req
        else {
            panic!("parsed a submit")
        };
        assert_eq!(config, "sp+dp");
        assert_eq!(max_retries, EnactorConfig::default().max_job_retries);
        assert!(!continue_on_error);
    }

    fn test_daemon() -> Daemon {
        use crate::backend::VirtualBackend;
        use crate::daemon::DaemonConfig;
        use crate::store::{DataStore, StoreConfig};
        Daemon::new(
            Box::new(VirtualBackend::new()),
            DataStore::in_memory(StoreConfig::default()),
            |_, _| Err(MoteurError::new("no workflow is submitted here")),
            DaemonConfig::default(),
        )
    }

    #[test]
    fn over_long_and_non_utf8_lines_get_one_error_each_and_the_session_goes_on() {
        let mut daemon = test_daemon();
        let list = Request::List.render();
        // A line one byte over the cap, a `list` padded to exactly the
        // cap, a line that is not UTF-8, and a `list` ended by EOF
        // instead of a newline.
        let mut session = format!(
            "{}\n{}\n",
            "x".repeat(MAX_REQUEST_BYTES + 1),
            " ".repeat(MAX_REQUEST_BYTES - list.len()) + &list
        )
        .into_bytes();
        session.extend_from_slice(b"\xff\xfe\n");
        session.extend_from_slice(list.as_bytes());
        let mut out = Vec::new();
        serve(&mut daemon, session.as_slice(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].contains("request longer than"), "{}", lines[0]);
        assert!(lines[2].contains("not valid UTF-8"), "{}", lines[2]);
        for line in [lines[0], lines[2]] {
            assert!(line.contains(r#""ok":false"#), "{line}");
        }
        for line in [lines[1], lines[3]] {
            assert!(line.contains(r#""op":"list","ok":true"#), "{line}");
        }
    }

    #[test]
    fn deeply_nested_line_gets_an_error_and_the_session_goes_on() {
        let mut daemon = test_daemon();
        let session = format!("{}\n{}\n", "[".repeat(200_000), Request::List.render());
        let mut out = Vec::new();
        serve(&mut daemon, session.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
        assert!(lines[0].contains("nesting deeper than"), "{}", lines[0]);
        assert!(
            lines[1].contains(r#""op":"list","ok":true"#),
            "{}",
            lines[1]
        );
    }
}
