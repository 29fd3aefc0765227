//! OGC Web Processing Service (WPS).
//!
//! "The ones we adopt are Web Processing Service (WPS) and Sensor
//! Observation Service (SOS)" (paper §IV-B). This module implements the WPS
//! trio — GetCapabilities, DescribeProcess, Execute — over pluggable
//! processes, with input validation against declared parameter ranges,
//! both JSON (the portal's native encoding) and XML (standards-compliant)
//! execute paths, and asynchronous execution with status polling.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use evop_obs::{MetricsRegistry, TraceContext, Tracer};
use parking_lot::Mutex;
use serde_json::{Map, Value};

use crate::xml::Element;

/// A pluggable result cache consulted by [`WpsServer::execute_body`] after
/// input validation and fed on successful execution.
///
/// The server itself knows nothing about keys, tiers, TTLs or admission —
/// it hands the cache the validated inputs (canonical: defaults filled in,
/// ranges checked) and either serves the returned body or stores the fresh
/// one. Results travel as their compact JSON bytes, so a hit is served
/// without decoding or re-encoding anything. `evop-cache` supplies the
/// real two-tier implementation; tests can plug in anything.
/// Implementations count their own hit/miss metrics.
pub trait WpsCache: Send + Sync {
    /// The cached JSON body for `process` run with `inputs`, if one is
    /// fresh.
    fn lookup(&self, process: &str, inputs: &Map<String, Value>) -> Option<Bytes>;

    /// Offers a freshly encoded result `body` for caching. Implementations
    /// are free to reject it (admission control).
    fn store(&self, process: &str, inputs: &Map<String, Value>, body: &Bytes);
}

/// The type and constraints of one process parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamType {
    /// A float, optionally range-constrained.
    Float {
        /// Inclusive minimum, if constrained.
        min: Option<f64>,
        /// Inclusive maximum, if constrained.
        max: Option<f64>,
    },
    /// An integer, optionally range-constrained.
    Integer {
        /// Inclusive minimum, if constrained.
        min: Option<i64>,
        /// Inclusive maximum, if constrained.
        max: Option<i64>,
    },
    /// Free text.
    Text,
    /// One of a fixed set of literal values.
    Choice(Vec<String>),
    /// An arbitrary JSON document (WPS ComplexData).
    Json,
}

/// One declared input parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter identifier, e.g. `"m"`.
    pub name: String,
    /// Human-readable title shown by portal widgets.
    pub title: String,
    /// Type and constraints.
    pub param_type: ParamType,
    /// Used when the input is omitted; `None` makes the parameter required.
    pub default: Option<Value>,
}

impl ParamSpec {
    /// A required parameter.
    pub fn required(
        name: impl Into<String>,
        title: impl Into<String>,
        param_type: ParamType,
    ) -> ParamSpec {
        ParamSpec { name: name.into(), title: title.into(), param_type, default: None }
    }

    /// An optional parameter with a default.
    pub fn optional(
        name: impl Into<String>,
        title: impl Into<String>,
        param_type: ParamType,
        default: Value,
    ) -> ParamSpec {
        ParamSpec { name: name.into(), title: title.into(), param_type, default: Some(default) }
    }
}

/// Static description of a process, served by DescribeProcess.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessDescriptor {
    /// Process identifier, e.g. `"topmodel"`.
    pub identifier: String,
    /// Human-readable title.
    pub title: String,
    /// Prose description.
    pub abstract_text: String,
    /// Declared inputs.
    pub inputs: Vec<ParamSpec>,
    /// Declared outputs as `(identifier, description)` pairs.
    pub outputs: Vec<(String, String)>,
}

/// Errors from WPS operations.
#[derive(Debug, Clone, PartialEq)]
pub enum WpsError {
    /// No process with that identifier is registered.
    UnknownProcess(String),
    /// An input failed validation.
    InvalidParameter {
        /// The offending parameter.
        name: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The process itself failed.
    ExecutionFailed(String),
    /// The status id does not correspond to an async execution.
    UnknownJob(u64),
    /// The XML request was malformed.
    MalformedRequest(String),
}

impl fmt::Display for WpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WpsError::UnknownProcess(id) => write!(f, "unknown process: {id}"),
            WpsError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
            WpsError::ExecutionFailed(reason) => write!(f, "execution failed: {reason}"),
            WpsError::UnknownJob(id) => write!(f, "unknown execution: {id}"),
            WpsError::MalformedRequest(reason) => write!(f, "malformed request: {reason}"),
        }
    }
}

impl std::error::Error for WpsError {}

/// A computational process exposed over WPS.
///
/// Implementations live in `evop-models` (TOPMODEL, FUSE, GLUE) and
/// anywhere else a tool wants to expose computation to the portal.
pub trait WpsProcess: Send + Sync {
    /// The static process description.
    fn descriptor(&self) -> ProcessDescriptor;

    /// Runs the process on validated inputs (defaults already filled in).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on failure, which the server wraps
    /// in [`WpsError::ExecutionFailed`].
    fn execute(&self, inputs: &Map<String, Value>) -> Result<Value, String>;
}

/// Status of an asynchronous execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecStatus {
    /// Queued, not yet processed.
    Accepted,
    /// Finished successfully with the given outputs.
    Succeeded(Value),
    /// Failed with the given error.
    Failed(String),
}

/// The WPS server: a registry of processes plus the protocol operations.
///
/// # Examples
///
/// ```
/// use evop_services::wps::{ParamSpec, ParamType, ProcessDescriptor, WpsProcess, WpsServer};
/// use serde_json::{json, Map, Value};
///
/// #[derive(Debug)]
/// struct Doubler;
/// impl WpsProcess for Doubler {
///     fn descriptor(&self) -> ProcessDescriptor {
///         ProcessDescriptor {
///             identifier: "double".into(),
///             title: "Doubler".into(),
///             abstract_text: "Doubles x".into(),
///             inputs: vec![ParamSpec::required("x", "Input", ParamType::Float { min: None, max: None })],
///             outputs: vec![("y".into(), "2x".into())],
///         }
///     }
///     fn execute(&self, inputs: &Map<String, Value>) -> Result<Value, String> {
///         let x = inputs["x"].as_f64().ok_or("x must be a number")?;
///         Ok(json!({ "y": 2.0 * x }))
///     }
/// }
///
/// let mut server = WpsServer::new();
/// server.register(Doubler);
/// let out = server.execute("double", json!({"x": 21.0})).unwrap();
/// assert_eq!(out["y"], 42.0);
/// ```
#[derive(Default)]
pub struct WpsServer {
    processes: BTreeMap<String, Box<dyn WpsProcess>>,
    /// Asynchronous executions. Interior-mutable so a shared (`Arc`) server
    /// can accept and progress async jobs — the portal API serves many
    /// simultaneous users over one server instance.
    jobs: Mutex<AsyncJobs>,
    tracer: Option<Tracer>,
    metrics: Option<MetricsRegistry>,
    cache: Option<Arc<dyn WpsCache>>,
}

#[derive(Default)]
struct AsyncJobs {
    next: u64,
    by_id: BTreeMap<u64, (String, Map<String, Value>, ExecStatus)>,
}

impl fmt::Debug for WpsServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WpsServer")
            .field("processes", &self.processes.keys().collect::<Vec<_>>())
            .field("jobs", &self.jobs.lock().by_id.len())
            .finish()
    }
}

impl WpsServer {
    /// Creates a server with no processes.
    pub fn new() -> WpsServer {
        WpsServer::default()
    }

    /// Registers a process under its descriptor's identifier. Re-registering
    /// replaces the previous process.
    pub fn register<P: WpsProcess + 'static>(&mut self, process: P) {
        let id = process.descriptor().identifier;
        self.processes.insert(id, Box::new(process));
    }

    /// Attaches a tracer: [`WpsServer::execute_traced`] opens a
    /// `wps.execute {id}` span under the caller's context.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Attaches a metrics registry: executions increment
    /// `wps_executions_total{process,outcome}`.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = Some(metrics);
    }

    /// Attaches a result cache: [`WpsServer::execute_body`] consults it
    /// after validation and feeds it on success. Callers of `execute` are
    /// untouched — a hit simply returns faster.
    pub fn set_cache(&mut self, cache: Arc<dyn WpsCache>) {
        self.cache = Some(cache);
    }

    /// Detaches the result cache, if any.
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// Registered process identifiers, sorted.
    pub fn process_ids(&self) -> Vec<&str> {
        self.processes.keys().map(String::as_str).collect()
    }

    /// GetCapabilities: the service metadata and process offerings, as XML.
    pub fn get_capabilities(&self) -> Element {
        let offerings = self.processes.values().map(|p| {
            let d = p.descriptor();
            Element::new("wps:Process")
                .child(Element::new("ows:Identifier").text(&d.identifier))
                .child(Element::new("ows:Title").text(&d.title))
        });
        Element::new("wps:Capabilities")
            .attr("service", "WPS")
            .attr("version", "1.0.0")
            .child(
                Element::new("ows:ServiceIdentification")
                    .child(Element::new("ows:Title").text("EVOp Web Processing Service")),
            )
            .child(Element::new("wps:ProcessOfferings").children(offerings))
    }

    /// DescribeProcess: the full input/output description, as XML.
    ///
    /// # Errors
    ///
    /// Returns [`WpsError::UnknownProcess`] for an unregistered identifier.
    pub fn describe_process(&self, id: &str) -> Result<Element, WpsError> {
        let process =
            self.processes.get(id).ok_or_else(|| WpsError::UnknownProcess(id.to_owned()))?;
        let d = process.descriptor();
        let inputs = d.inputs.iter().map(|p| {
            let mut e = Element::new("wps:Input")
                .attr("minOccurs", if p.default.is_none() { "1" } else { "0" })
                .child(Element::new("ows:Identifier").text(&p.name))
                .child(Element::new("ows:Title").text(&p.title));
            if let ParamType::Float { min: Some(lo), max: Some(hi) } = &p.param_type {
                e = e.child(
                    Element::new("ows:AllowedValues").child(
                        Element::new("ows:Range")
                            .child(Element::new("ows:MinimumValue").text(lo.to_string()))
                            .child(Element::new("ows:MaximumValue").text(hi.to_string())),
                    ),
                );
            }
            e
        });
        let outputs = d.outputs.iter().map(|(name, desc)| {
            Element::new("wps:Output")
                .child(Element::new("ows:Identifier").text(name))
                .child(Element::new("ows:Abstract").text(desc))
        });
        Ok(Element::new("wps:ProcessDescription")
            .child(Element::new("ows:Identifier").text(&d.identifier))
            .child(Element::new("ows:Title").text(&d.title))
            .child(Element::new("ows:Abstract").text(&d.abstract_text))
            .child(Element::new("wps:DataInputs").children(inputs))
            .child(Element::new("wps:ProcessOutputs").children(outputs)))
    }

    /// Synchronous Execute with JSON inputs.
    ///
    /// Inputs are validated against the descriptor: unknown parameters are
    /// rejected, missing optionals take their defaults, and range
    /// constraints are enforced.
    ///
    /// # Errors
    ///
    /// Returns [`WpsError::UnknownProcess`], [`WpsError::InvalidParameter`]
    /// or [`WpsError::ExecutionFailed`].
    pub fn execute(&self, id: &str, inputs: Value) -> Result<Value, WpsError> {
        self.execute_traced(id, inputs, None)
    }

    /// [`WpsServer::execute`] joined to a caller's trace context: the
    /// body [`WpsServer::execute_body`] returns, decoded.
    ///
    /// # Errors
    ///
    /// As for [`WpsServer::execute`], plus [`WpsError::ExecutionFailed`]
    /// when the body is not JSON.
    pub fn execute_traced(
        &self,
        id: &str,
        inputs: Value,
        ctx: Option<&TraceContext>,
    ) -> Result<Value, WpsError> {
        let body = self.execute_body(id, inputs, ctx)?;
        serde_json::from_slice(&body)
            .map_err(|e| WpsError::ExecutionFailed(format!("result is not JSON: {e}")))
    }

    /// The one execute path: validates, consults the cache, runs the
    /// process on a miss and returns the result as compact JSON bytes —
    /// the body a REST client receives. A cache hit is those bytes as
    /// stored; a miss encodes once and caches the same bytes.
    ///
    /// When a tracer is attached, the execution is recorded as a
    /// `wps.execute {id}` span — a child of `ctx` when given, or a fresh
    /// trace otherwise — so the model run shows up on the request timeline.
    ///
    /// # Errors
    ///
    /// As for [`WpsServer::execute`].
    pub fn execute_body(
        &self,
        id: &str,
        inputs: Value,
        ctx: Option<&TraceContext>,
    ) -> Result<Bytes, WpsError> {
        let span = self.tracer.as_ref().map(|tracer| {
            let name = format!("wps.execute {id}");
            match ctx {
                Some(ctx) => tracer.start_span(name, ctx),
                None => tracer.start_trace(name),
            }
        });
        let result = self.execute_inner(id, inputs);
        let outcome = match &result {
            Ok(_) => "ok",
            Err(_) => "error",
        };
        if let Some(span) = span {
            span.attr("process", id);
            span.attr("outcome", outcome);
            if let Err(e) = &result {
                span.event(format!("execution failed: {e}"));
            }
            span.finish();
        }
        if let Some(metrics) = &self.metrics {
            metrics.inc_counter("wps_executions_total", &[("process", id), ("outcome", outcome)]);
        }
        result
    }

    fn execute_inner(&self, id: &str, inputs: Value) -> Result<Bytes, WpsError> {
        let process =
            self.processes.get(id).ok_or_else(|| WpsError::UnknownProcess(id.to_owned()))?;
        let validated = validate_inputs(&process.descriptor(), inputs)?;
        // Cache lookup happens on *validated* inputs so `{}` and an
        // explicit spelling of every default hit the same entry.
        if let Some(cache) = &self.cache {
            if let Some(body) = cache.lookup(id, &validated) {
                return Ok(body);
            }
        }
        let result = process.execute(&validated).map_err(WpsError::ExecutionFailed)?;
        let body = serde_json::to_vec(&result)
            .map_err(|e| WpsError::ExecutionFailed(format!("result does not encode: {e}")))?;
        let body = Bytes::from(body);
        if let Some(cache) = &self.cache {
            cache.store(id, &validated, &body);
        }
        Ok(body)
    }

    /// Asynchronous Execute: validates and enqueues, returning a status id
    /// ("statusLocation" in WPS terms). Call [`WpsServer::process_pending`]
    /// to run queued executions, then poll [`WpsServer::status`].
    ///
    /// # Errors
    ///
    /// Returns validation errors immediately, like [`WpsServer::execute`].
    pub fn execute_async(&self, id: &str, inputs: Value) -> Result<u64, WpsError> {
        let process =
            self.processes.get(id).ok_or_else(|| WpsError::UnknownProcess(id.to_owned()))?;
        let validated = validate_inputs(&process.descriptor(), inputs)?;
        let mut jobs = self.jobs.lock();
        let job = jobs.next;
        jobs.next += 1;
        jobs.by_id.insert(job, (id.to_owned(), validated, ExecStatus::Accepted));
        Ok(job)
    }

    /// Runs all queued asynchronous executions, returning how many ran.
    ///
    /// The job lock is not held across process execution, so status polls
    /// from other callers never block on a long model run.
    pub fn process_pending(&self) -> usize {
        let pending: Vec<(u64, String, Map<String, Value>)> = {
            let jobs = self.jobs.lock();
            jobs.by_id
                .iter()
                .filter(|(_, (_, _, s))| matches!(s, ExecStatus::Accepted))
                .map(|(&id, (p, i, _))| (id, p.clone(), i.clone()))
                .collect()
        };
        for (job, process_id, inputs) in &pending {
            let outcome = match self.processes.get(process_id) {
                Some(p) => match p.execute(inputs) {
                    Ok(v) => ExecStatus::Succeeded(v),
                    Err(e) => ExecStatus::Failed(e),
                },
                None => ExecStatus::Failed(format!("process vanished: {process_id}")),
            };
            if let Some(entry) = self.jobs.lock().by_id.get_mut(job) {
                entry.2 = outcome;
            }
        }
        pending.len()
    }

    /// The status of an asynchronous execution.
    ///
    /// # Errors
    ///
    /// Returns [`WpsError::UnknownJob`] for an unknown id.
    pub fn status(&self, job: u64) -> Result<ExecStatus, WpsError> {
        self.jobs.lock().by_id.get(&job).map(|(_, _, s)| s.clone()).ok_or(WpsError::UnknownJob(job))
    }

    /// Standards-compliant Execute over an XML request document.
    ///
    /// # Errors
    ///
    /// Returns [`WpsError::MalformedRequest`] for bad XML structure, plus
    /// the same errors as [`WpsServer::execute`].
    pub fn execute_xml(&self, request: &Element) -> Result<Element, WpsError> {
        if request.name() != "wps:Execute" {
            return Err(WpsError::MalformedRequest(format!(
                "expected wps:Execute, got {}",
                request.name()
            )));
        }
        let id = request
            .elements()
            .find(|e| e.name() == "ows:Identifier")
            .map(|e| e.text_content())
            .ok_or_else(|| WpsError::MalformedRequest("missing ows:Identifier".to_owned()))?;

        let mut inputs = Map::new();
        if let Some(data_inputs) = request.find("wps:DataInputs") {
            for input in data_inputs.find_all("wps:Input") {
                let name =
                    input.find("ows:Identifier").map(Element::text_content).ok_or_else(|| {
                        WpsError::MalformedRequest("input missing identifier".to_owned())
                    })?;
                let value = if let Some(lit) = input.find("wps:LiteralData") {
                    let text = lit.text_content();
                    match text.parse::<f64>() {
                        Ok(n) => Value::from(n),
                        Err(_) => Value::from(text),
                    }
                } else if let Some(complex) = input.find("wps:ComplexData") {
                    serde_json::from_str(&complex.text_content())
                        .map_err(|e| WpsError::MalformedRequest(format!("bad ComplexData: {e}")))?
                } else {
                    return Err(WpsError::MalformedRequest(format!("input {name} has no data")));
                };
                inputs.insert(name, value);
            }
        }

        let outputs = self.execute(&id, Value::Object(inputs))?;
        Ok(Element::new("wps:ExecuteResponse")
            .attr("service", "WPS")
            .attr("version", "1.0.0")
            .child(
                Element::new("wps:Status").child(Element::new("wps:ProcessSucceeded").text("ok")),
            )
            .child(
                Element::new("wps:ProcessOutputs").child(
                    Element::new("wps:Output")
                        .child(Element::new("ows:Identifier").text("result"))
                        .child(
                            Element::new("wps:Data").child(
                                Element::new("wps:ComplexData")
                                    .attr("mimeType", "application/json")
                                    .text(outputs.to_string()),
                            ),
                        ),
                ),
            ))
    }
}

/// Validates JSON inputs against a descriptor, filling defaults.
fn validate_inputs(
    descriptor: &ProcessDescriptor,
    inputs: Value,
) -> Result<Map<String, Value>, WpsError> {
    let supplied = match inputs {
        Value::Object(map) => map,
        Value::Null => Map::new(),
        other => {
            return Err(WpsError::InvalidParameter {
                name: "<inputs>".to_owned(),
                reason: format!("expected an object, got {other}"),
            })
        }
    };

    for key in supplied.keys() {
        if !descriptor.inputs.iter().any(|p| &p.name == key) {
            return Err(WpsError::InvalidParameter {
                name: key.clone(),
                reason: "not a declared input".to_owned(),
            });
        }
    }

    let mut validated = Map::new();
    for spec in &descriptor.inputs {
        let value = match supplied.get(&spec.name) {
            Some(v) => v.clone(),
            None => match &spec.default {
                Some(d) => d.clone(),
                None => {
                    return Err(WpsError::InvalidParameter {
                        name: spec.name.clone(),
                        reason: "required input missing".to_owned(),
                    })
                }
            },
        };
        // Null (supplied or defaulted) means "unset": the parameter is
        // simply absent from the validated inputs and the process applies
        // its own default.
        if value.is_null() {
            continue;
        }
        check_type(spec, &value)?;
        validated.insert(spec.name.clone(), value);
    }
    Ok(validated)
}

fn check_type(spec: &ParamSpec, value: &Value) -> Result<(), WpsError> {
    let fail = |reason: String| Err(WpsError::InvalidParameter { name: spec.name.clone(), reason });
    match &spec.param_type {
        ParamType::Float { min, max } => match value.as_f64() {
            Some(x) => {
                if let Some(lo) = min {
                    if x < *lo {
                        return fail(format!("{x} below minimum {lo}"));
                    }
                }
                if let Some(hi) = max {
                    if x > *hi {
                        return fail(format!("{x} above maximum {hi}"));
                    }
                }
                Ok(())
            }
            None => fail(format!("expected a number, got {value}")),
        },
        ParamType::Integer { min, max } => match value.as_i64() {
            Some(x) => {
                if let Some(lo) = min {
                    if x < *lo {
                        return fail(format!("{x} below minimum {lo}"));
                    }
                }
                if let Some(hi) = max {
                    if x > *hi {
                        return fail(format!("{x} above maximum {hi}"));
                    }
                }
                Ok(())
            }
            None => fail(format!("expected an integer, got {value}")),
        },
        ParamType::Text => {
            if value.is_string() {
                Ok(())
            } else {
                fail(format!("expected text, got {value}"))
            }
        }
        ParamType::Choice(options) => match value.as_str() {
            Some(s) if options.iter().any(|o| o == s) => Ok(()),
            Some(s) => fail(format!("{s:?} is not one of {options:?}")),
            None => fail(format!("expected one of {options:?}, got {value}")),
        },
        ParamType::Json => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[derive(Debug)]
    struct Power;

    impl WpsProcess for Power {
        fn descriptor(&self) -> ProcessDescriptor {
            ProcessDescriptor {
                identifier: "power".into(),
                title: "Power".into(),
                abstract_text: "x^n".into(),
                inputs: vec![
                    ParamSpec::required(
                        "x",
                        "Base",
                        ParamType::Float { min: Some(0.0), max: Some(100.0) },
                    ),
                    ParamSpec::optional(
                        "n",
                        "Exponent",
                        ParamType::Integer { min: Some(0), max: Some(8) },
                        json!(2),
                    ),
                    ParamSpec::optional(
                        "mode",
                        "Mode",
                        ParamType::Choice(vec!["exact".into(), "approx".into()]),
                        json!("exact"),
                    ),
                ],
                outputs: vec![("y".into(), "result".into())],
            }
        }

        fn execute(&self, inputs: &Map<String, Value>) -> Result<Value, String> {
            let x = inputs["x"].as_f64().expect("validated");
            let n = inputs["n"].as_i64().expect("validated");
            Ok(json!({ "y": x.powi(n as i32) }))
        }
    }

    fn server() -> WpsServer {
        let mut s = WpsServer::new();
        s.register(Power);
        s
    }

    #[test]
    fn execute_with_defaults() {
        let out = server().execute("power", json!({"x": 3.0})).unwrap();
        assert_eq!(out["y"], 9.0);
    }

    #[test]
    fn traced_execute_parents_under_caller_and_counts() {
        let mut s = server();
        let tracer = Tracer::new();
        let metrics = MetricsRegistry::new();
        s.set_tracer(tracer.clone());
        s.set_metrics(metrics.clone());

        let root = tracer.start_trace("request");
        s.execute_traced("power", json!({"x": 3.0}), Some(&root.context())).unwrap();
        s.execute_traced("missing", json!({}), Some(&root.context())).unwrap_err();
        let root_ctx = root.context();
        root.finish();

        let spans = tracer.finished();
        let ok = spans.iter().find(|sp| sp.name == "wps.execute power").unwrap();
        assert_eq!(ok.trace_id, root_ctx.trace_id);
        assert_eq!(ok.parent, Some(root_ctx.span_id));
        assert_eq!(ok.attrs["outcome"], "ok");
        let failed = spans.iter().find(|sp| sp.name == "wps.execute missing").unwrap();
        assert_eq!(failed.attrs["outcome"], "error");
        assert_eq!(
            metrics.counter("wps_executions_total", &[("process", "power"), ("outcome", "ok")]),
            1
        );
        assert_eq!(
            metrics
                .counter("wps_executions_total", &[("process", "missing"), ("outcome", "error")]),
            1
        );
    }

    #[test]
    fn execute_with_explicit_inputs() {
        let out = server().execute("power", json!({"x": 2.0, "n": 5})).unwrap();
        assert_eq!(out["y"], 32.0);
    }

    #[test]
    fn missing_required_input_rejected() {
        let err = server().execute("power", json!({})).unwrap_err();
        assert!(matches!(err, WpsError::InvalidParameter { ref name, .. } if name == "x"));
    }

    #[test]
    fn out_of_range_rejected() {
        let err = server().execute("power", json!({"x": 1000.0})).unwrap_err();
        assert!(matches!(err, WpsError::InvalidParameter { ref name, .. } if name == "x"));
        let err = server().execute("power", json!({"x": 1.0, "n": 99})).unwrap_err();
        assert!(matches!(err, WpsError::InvalidParameter { ref name, .. } if name == "n"));
    }

    #[test]
    fn unknown_input_rejected() {
        let err = server().execute("power", json!({"x": 1.0, "bogus": 1})).unwrap_err();
        assert!(matches!(err, WpsError::InvalidParameter { ref name, .. } if name == "bogus"));
    }

    #[test]
    fn choice_validation() {
        assert!(server().execute("power", json!({"x": 1.0, "mode": "approx"})).is_ok());
        let err = server().execute("power", json!({"x": 1.0, "mode": "magic"})).unwrap_err();
        assert!(matches!(err, WpsError::InvalidParameter { ref name, .. } if name == "mode"));
    }

    #[test]
    fn unknown_process_rejected() {
        let err = server().execute("nope", json!({})).unwrap_err();
        assert_eq!(err, WpsError::UnknownProcess("nope".to_owned()));
    }

    #[test]
    fn capabilities_lists_processes() {
        let caps = server().get_capabilities();
        assert_eq!(caps.attribute("service"), Some("WPS"));
        let ids: Vec<String> =
            caps.find_all("ows:Identifier").iter().map(|e| e.text_content()).collect();
        assert!(ids.contains(&"power".to_owned()));
    }

    #[test]
    fn describe_process_exposes_ranges() {
        let desc = server().describe_process("power").unwrap();
        assert_eq!(desc.find("ows:MinimumValue").unwrap().text_content(), "0");
        assert_eq!(desc.find("ows:MaximumValue").unwrap().text_content(), "100");
        assert!(server().describe_process("nope").is_err());
    }

    #[test]
    fn async_execution_lifecycle() {
        let s = server();
        let job = s.execute_async("power", json!({"x": 4.0})).unwrap();
        assert_eq!(s.status(job).unwrap(), ExecStatus::Accepted);
        assert_eq!(s.process_pending(), 1);
        match s.status(job).unwrap() {
            ExecStatus::Succeeded(v) => assert_eq!(v["y"], 16.0),
            other => panic!("unexpected status: {other:?}"),
        }
        assert!(matches!(s.status(999), Err(WpsError::UnknownJob(999))));
    }

    #[test]
    fn async_validation_is_eager() {
        let s = server();
        assert!(s.execute_async("power", json!({"x": -1.0})).is_err());
    }

    #[test]
    fn async_execution_through_a_shared_server() {
        use std::sync::Arc;
        let s = Arc::new(server());
        // Many clients enqueue through clones of the Arc…
        let jobs: Vec<u64> =
            (0..8).map(|i| s.execute_async("power", json!({"x": f64::from(i)})).unwrap()).collect();
        // …a worker drains the queue…
        assert_eq!(s.process_pending(), 8);
        assert_eq!(s.process_pending(), 0, "queue is empty afterwards");
        // …and every client sees its own result.
        for (i, job) in jobs.iter().enumerate() {
            match s.status(*job).unwrap() {
                ExecStatus::Succeeded(v) => assert_eq!(v["y"], (i * i) as f64),
                other => panic!("unexpected status: {other:?}"),
            }
        }
    }

    #[test]
    fn xml_execute_round_trip() {
        let request = Element::new("wps:Execute")
            .attr("service", "WPS")
            .child(Element::new("ows:Identifier").text("power"))
            .child(Element::new("wps:DataInputs").child(
                Element::new("wps:Input").child(Element::new("ows:Identifier").text("x")).child(
                    Element::new("wps:Data").child(Element::new("wps:LiteralData").text("3")),
                ),
            ));
        let response = server().execute_xml(&request).unwrap();
        assert!(response.find("wps:ProcessSucceeded").is_some());
        let payload = response.find("wps:ComplexData").unwrap().text_content();
        let v: Value = serde_json::from_str(&payload).unwrap();
        assert_eq!(v["y"], 9.0);
    }

    #[test]
    fn xml_execute_rejects_malformed() {
        let bad = Element::new("wps:Execute"); // no identifier
        assert!(matches!(server().execute_xml(&bad), Err(WpsError::MalformedRequest(_))));
        let wrong_root = Element::new("something");
        assert!(server().execute_xml(&wrong_root).is_err());
    }
}
