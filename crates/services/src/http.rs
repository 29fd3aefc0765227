//! HTTP-style message envelopes.
//!
//! The substrate is in-process (see DESIGN.md), so these types model the
//! *message semantics* — method, path, query, headers, body — without a
//! socket. Everything above this module (REST router, WPS, SOS, the portal)
//! is written exactly as it would be against a real HTTP stack.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use evop_obs::TraceContext;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// An HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Safe, idempotent retrieval.
    Get,
    /// Creation / RPC-style invocation.
    Post,
    /// Idempotent replacement.
    Put,
    /// Idempotent removal.
    Delete,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        };
        f.write_str(s)
    }
}

/// An HTTP status code (newtype over the numeric code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 201 Created.
    pub const CREATED: StatusCode = StatusCode(201);
    /// 202 Accepted (asynchronous WPS executions).
    pub const ACCEPTED: StatusCode = StatusCode(202);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 403 Forbidden (access-policy refusals).
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 405 Method Not Allowed.
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    /// 409 Conflict.
    pub const CONFLICT: StatusCode = StatusCode(409);
    /// 500 Internal Server Error.
    pub const INTERNAL_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// `true` for 2xx codes.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An HTTP-style request.
///
/// # Examples
///
/// ```
/// use evop_services::{Method, Request};
///
/// let req = Request::get("/catchments/morland/sensors")
///     .query("kind", "river-level")
///     .header("accept", "application/json");
/// assert_eq!(req.method(), Method::Get);
/// assert_eq!(req.query_param("kind"), Some("river-level"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    method: Method,
    path: String,
    query: BTreeMap<String, String>,
    headers: BTreeMap<String, String>,
    body: Bytes,
}

impl Request {
    /// Creates a request with the given method and path.
    pub fn new(method: Method, path: impl Into<String>) -> Request {
        Request {
            method,
            path: path.into(),
            query: BTreeMap::new(),
            headers: BTreeMap::new(),
            body: Bytes::new(),
        }
    }

    /// Convenience: a GET request.
    pub fn get(path: impl Into<String>) -> Request {
        Request::new(Method::Get, path)
    }

    /// Convenience: a POST request.
    pub fn post(path: impl Into<String>) -> Request {
        Request::new(Method::Post, path)
    }

    /// Convenience: a PUT request.
    pub fn put(path: impl Into<String>) -> Request {
        Request::new(Method::Put, path)
    }

    /// Convenience: a DELETE request.
    pub fn delete(path: impl Into<String>) -> Request {
        Request::new(Method::Delete, path)
    }

    /// Adds a query parameter.
    pub fn query(mut self, key: impl Into<String>, value: impl Into<String>) -> Request {
        self.query.insert(key.into(), value.into());
        self
    }

    /// Adds a header (keys are lower-cased).
    pub fn header(mut self, key: impl Into<String>, value: impl Into<String>) -> Request {
        self.headers.insert(key.into().to_lowercase(), value.into());
        self
    }

    /// Sets a raw body.
    pub fn body(mut self, body: impl Into<Bytes>) -> Request {
        self.body = body.into();
        self
    }

    /// Sets a JSON body and content type.
    ///
    /// A value that cannot be serialised (a programmer error for the types
    /// used in this workspace) produces an empty JSON object body rather
    /// than panicking mid-request; the receiving handler rejects it.
    pub fn json<T: Serialize>(self, value: &T) -> Request {
        let bytes = serde_json::to_vec(value).unwrap_or_else(|_| b"{}".to_vec());
        self.header("content-type", "application/json").body(bytes)
    }

    /// The request method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The request path, e.g. `"/datasets/rain-morland"`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// A query parameter by key.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// All query parameters.
    pub fn query_params(&self) -> &BTreeMap<String, String> {
        &self.query
    }

    /// A header by (case-insensitive) key.
    pub fn header_value(&self, key: &str) -> Option<&str> {
        self.headers.get(&key.to_lowercase()).map(String::as_str)
    }

    /// The raw body.
    pub fn body_bytes(&self) -> &Bytes {
        &self.body
    }

    /// Deserialises the body as JSON.
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` error when the body is not valid JSON for
    /// `T`.
    pub fn json_body<T: DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// Attaches a trace context as `x-trace-id` / `x-span-id` headers, the
    /// same way a real HTTP client would propagate W3C trace context.
    pub fn traced(self, ctx: &TraceContext) -> Request {
        self.header(TraceContext::TRACE_HEADER, ctx.trace_id.to_string())
            .header(TraceContext::SPAN_HEADER, ctx.span_id.to_string())
    }

    /// The trace context carried in the propagation headers, when both are
    /// present and well-formed hex.
    pub fn trace_context(&self) -> Option<TraceContext> {
        TraceContext::from_header_values(
            self.header_value(TraceContext::TRACE_HEADER)?,
            self.header_value(TraceContext::SPAN_HEADER)?,
        )
    }

    /// The approximate size of the request on the wire, in bytes. Used by
    /// the push-vs-poll experiment to compare traffic volumes.
    pub fn wire_size(&self) -> usize {
        let mut size = self.method.to_string().len() + self.path.len() + 12;
        for (k, v) in &self.query {
            size += k.len() + v.len() + 2;
        }
        for (k, v) in &self.headers {
            size += k.len() + v.len() + 4;
        }
        size + self.body.len()
    }
}

/// An HTTP-style response.
///
/// # Examples
///
/// ```
/// use evop_services::{Response, StatusCode};
///
/// let resp = Response::ok().json(&serde_json::json!({"status": "ready"}));
/// assert_eq!(resp.status(), StatusCode::OK);
/// let value: serde_json::Value = resp.json_body().unwrap();
/// assert_eq!(value["status"], "ready");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    status: StatusCode,
    headers: BTreeMap<String, String>,
    body: Bytes,
}

impl Response {
    /// Creates a response with the given status and empty body.
    pub fn new(status: StatusCode) -> Response {
        Response { status, headers: BTreeMap::new(), body: Bytes::new() }
    }

    /// Convenience: 200 OK.
    pub fn ok() -> Response {
        Response::new(StatusCode::OK)
    }

    /// Convenience: 404 with a plain-text reason.
    pub fn not_found(reason: impl Into<String>) -> Response {
        Response::new(StatusCode::NOT_FOUND).text(reason.into())
    }

    /// Convenience: 400 with a plain-text reason.
    pub fn bad_request(reason: impl Into<String>) -> Response {
        Response::new(StatusCode::BAD_REQUEST).text(reason.into())
    }

    /// Convenience: 500 with a plain-text reason.
    pub fn internal_error(reason: impl Into<String>) -> Response {
        Response::new(StatusCode::INTERNAL_ERROR).text(reason.into())
    }

    /// Adds a header (keys are lower-cased).
    pub fn header(mut self, key: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.insert(key.into().to_lowercase(), value.into());
        self
    }

    /// Sets a plain-text body.
    pub fn text(self, body: impl Into<String>) -> Response {
        let body: String = body.into();
        self.header("content-type", "text/plain").body(body.into_bytes())
    }

    /// Sets a JSON body and content type.
    ///
    /// A value that cannot be serialised (a programmer error for the types
    /// used in this workspace) degrades to a 500 response rather than
    /// panicking mid-request — one bad handler must not take down the
    /// process serving every other session.
    pub fn json<T: Serialize>(self, value: &T) -> Response {
        match serde_json::to_vec(value) {
            Ok(bytes) => self.header("content-type", "application/json").body(bytes),
            Err(e) => Response::internal_error(format!("response serialisation failed: {e}")),
        }
    }

    /// Sets an XML body and content type.
    pub fn xml(self, body: impl Into<String>) -> Response {
        let body: String = body.into();
        self.header("content-type", "application/xml").body(body.into_bytes())
    }

    /// Sets a raw body, shared rather than copied when it is already
    /// [`Bytes`].
    pub fn body(mut self, body: impl Into<Bytes>) -> Response {
        self.body = body.into();
        self
    }

    /// The status code.
    pub fn status(&self) -> StatusCode {
        self.status
    }

    /// A header by (case-insensitive) key.
    pub fn header_value(&self, key: &str) -> Option<&str> {
        self.headers.get(&key.to_lowercase()).map(String::as_str)
    }

    /// The raw body.
    pub fn body_bytes(&self) -> &Bytes {
        &self.body
    }

    /// The body as UTF-8 text, if valid.
    pub fn body_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Deserialises the body as JSON.
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` error when the body is not valid JSON for
    /// `T`.
    pub fn json_body<T: DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// Attaches a trace context as `x-trace-id` / `x-span-id` headers, so a
    /// caller can correlate the response with the server-side timeline.
    pub fn traced(self, ctx: &TraceContext) -> Response {
        self.header(TraceContext::TRACE_HEADER, ctx.trace_id.to_string())
            .header(TraceContext::SPAN_HEADER, ctx.span_id.to_string())
    }

    /// The trace context carried in the propagation headers, when both are
    /// present and well-formed hex.
    pub fn trace_context(&self) -> Option<TraceContext> {
        TraceContext::from_header_values(
            self.header_value(TraceContext::TRACE_HEADER)?,
            self.header_value(TraceContext::SPAN_HEADER)?,
        )
    }

    /// The approximate size of the response on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        let mut size = 16;
        for (k, v) in &self.headers {
            size += k.len() + v.len() + 4;
        }
        size + self.body.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_round_trip() {
        let req = Request::post("/runs")
            .query("model", "topmodel")
            .header("X-Session", "abc")
            .json(&serde_json::json!({"scenario": "baseline"}));
        assert_eq!(req.method(), Method::Post);
        assert_eq!(req.path(), "/runs");
        assert_eq!(req.query_param("model"), Some("topmodel"));
        assert_eq!(req.header_value("x-session"), Some("abc"));
        let body: serde_json::Value = req.json_body().unwrap();
        assert_eq!(body["scenario"], "baseline");
    }

    #[test]
    fn response_helpers() {
        assert_eq!(Response::ok().status(), StatusCode::OK);
        assert!(StatusCode::ACCEPTED.is_success());
        assert!(!StatusCode::NOT_FOUND.is_success());
        let r = Response::not_found("no such dataset");
        assert_eq!(r.body_text(), Some("no such dataset"));
        assert_eq!(r.header_value("content-type"), Some("text/plain"));
    }

    #[test]
    fn json_body_errors_on_garbage() {
        let r = Response::ok().text("not json");
        assert!(r.json_body::<serde_json::Value>().is_err());
    }

    #[test]
    fn wire_size_grows_with_content() {
        let small = Request::get("/a");
        let big = Request::get("/a").body(vec![0u8; 1000]);
        assert!(big.wire_size() > small.wire_size() + 900);
    }

    #[test]
    fn trace_context_round_trips_through_headers() {
        use evop_obs::{SpanId, TraceId};
        let ctx = TraceContext { trace_id: TraceId(0xabc), span_id: SpanId(7) };
        let req = Request::get("/catchments").traced(&ctx);
        assert_eq!(req.trace_context(), Some(ctx));
        let resp = Response::ok().traced(&ctx);
        assert_eq!(resp.trace_context(), Some(ctx));
        assert_eq!(Request::get("/").trace_context(), None);
    }

    #[test]
    fn method_display() {
        assert_eq!(Method::Get.to_string(), "GET");
        assert_eq!(Method::Delete.to_string(), "DELETE");
    }
}
