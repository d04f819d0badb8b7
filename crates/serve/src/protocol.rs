//! The wire protocol: request parsing and response rendering.
//!
//! Requests and responses are single-line JSON objects, read by the
//! strict shared parser in [`remedy_pipeline::json`] (bounded depth, no
//! trailing garbage, damage is an error, never a panic). Every request
//! has an `"op"` field and may carry an `"id"` correlation token and a
//! `"deadline_ms"` override; responses echo both and add either
//! `"ok":true` plus op-specific fields or `"ok":false` plus the
//! pipeline error taxonomy.

use remedy_core::{Algorithm, Enumeration, IbsParams, Neighborhood};
use remedy_dataset::RowEdit;
use remedy_pipeline::json::{self, json_str, Value};
use remedy_pipeline::{ErrorKind, PipelineError};

/// Every operation the service answers.
pub const OPS: [&str; 7] = [
    "load", "ingest", "identify", "audit", "remedy", "stats", "shutdown",
];

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation (one of [`OPS`]).
    pub op: String,
    /// Client correlation token, echoed verbatim in the response.
    pub id: Option<String>,
    /// Per-request deadline override in milliseconds (0 disables).
    pub deadline_ms: Option<u64>,
    /// The whole request object, for op-specific fields.
    pub body: Value,
}

/// Reclassifies a reader error: at the request boundary a bad line is an
/// invalid *plan* (the client sent garbage), not a torn artifact.
fn invalid(e: PipelineError) -> PipelineError {
    PipelineError::invalid_plan(e.message().to_string())
}

/// Parses one request line; every failure is `invalid-plan`.
pub fn parse_request(line: &str) -> Result<Request, PipelineError> {
    let body = json::parse(line).map_err(invalid)?;
    if !matches!(body, Value::Obj(_)) {
        return Err(PipelineError::invalid_plan("request must be a JSON object"));
    }
    let op = body.str_field("op").map_err(invalid)?.to_string();
    if !OPS.contains(&op.as_str()) {
        return Err(PipelineError::invalid_plan(format!(
            "unknown op `{op}` (expected one of {})",
            OPS.join("|")
        )));
    }
    let id = match body.field("id") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| PipelineError::invalid_plan("`id` must be a string"))?
                .to_string(),
        ),
    };
    let deadline_ms = match body.field("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            PipelineError::invalid_plan("`deadline_ms` must be an unsigned integer")
        })?),
    };
    Ok(Request {
        op,
        id,
        deadline_ms,
        body,
    })
}

/// Accumulates the op-specific fields of an ok response.
#[derive(Debug, Default)]
pub struct Fields(String);

impl Fields {
    /// An empty field set.
    pub fn new() -> Fields {
        Fields(String::new())
    }

    /// Appends a pre-rendered JSON value (number, bool, array, object).
    pub fn raw(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.0.push(',');
        self.0.push_str(&json_str(key));
        self.0.push(':');
        self.0.push_str(&value.to_string());
        self
    }

    /// Appends a string value, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, json_str(value))
    }

    /// Appends a float value (NaN/∞ render as null).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, json::json_f64(value))
    }
}

/// Renders an ok response echoing the request's op and id.
pub fn render_ok(req: &Request, fields: &Fields) -> String {
    let mut out = format!("{{\"ok\":true,\"op\":{}", json_str(&req.op));
    if let Some(id) = &req.id {
        out.push_str(&format!(",\"id\":{}", json_str(id)));
    }
    out.push_str(&fields.0);
    out.push('}');
    out
}

/// Renders an error response; `req` is `None` when the line never parsed
/// far enough to know the op.
pub fn render_err(req: Option<&Request>, kind: ErrorKind, message: &str) -> String {
    let mut out = String::from("{\"ok\":false");
    if let Some(req) = req {
        out.push_str(&format!(",\"op\":{}", json_str(&req.op)));
        if let Some(id) = &req.id {
            out.push_str(&format!(",\"id\":{}", json_str(id)));
        }
    }
    out.push_str(&format!(
        ",\"kind\":{},\"error\":{}}}",
        json_str(kind.name()),
        json_str(message)
    ));
    out
}

/// An optional string field; present-but-wrong-type is an error.
pub fn opt_str<'a>(body: &'a Value, name: &str) -> Result<Option<&'a str>, PipelineError> {
    match body.field(name) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| PipelineError::invalid_plan(format!("`{name}` must be a string"))),
    }
}

/// An optional unsigned-integer field.
pub fn opt_u64(body: &Value, name: &str) -> Result<Option<u64>, PipelineError> {
    match body.field(name) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            PipelineError::invalid_plan(format!("`{name}` must be an unsigned integer"))
        }),
    }
}

/// An optional number field.
pub fn opt_f64(body: &Value, name: &str) -> Result<Option<f64>, PipelineError> {
    match body.field(name) {
        None => Ok(None),
        Some(v) => match v {
            Value::Num(_) => Ok(v.as_f64()),
            _ => Err(PipelineError::invalid_plan(format!(
                "`{name}` must be a number"
            ))),
        },
    }
}

/// An optional boolean field.
pub fn opt_bool(body: &Value, name: &str) -> Result<Option<bool>, PipelineError> {
    match body.field(name) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| PipelineError::invalid_plan(format!("`{name}` must be a boolean"))),
    }
}

/// An optional string field parsed by its type's `FromStr` (the shared
/// parameter vocabulary); a bad token is `invalid-plan` naming the field,
/// the token and the accepted ones.
pub fn opt_parsed<T>(body: &Value, name: &str) -> Result<Option<T>, PipelineError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    opt_str(body, name)?
        .map(|s| {
            s.parse()
                .map_err(|e| PipelineError::invalid_plan(format!("`{name}`: {e}")))
        })
        .transpose()
}

/// The identification parameters of a request: `tau`, `min_size`,
/// `neighborhood`, `scope`, and the `pruned` enumeration toggle, with
/// the same defaults as the batch CLI.
pub fn ibs_params(body: &Value) -> Result<IbsParams, PipelineError> {
    let defaults = IbsParams::default();
    IbsParams::builder()
        .tau_c(opt_f64(body, "tau")?.unwrap_or(defaults.tau_c))
        .min_size(opt_u64(body, "min_size")?.unwrap_or(defaults.min_size))
        .neighborhood(neighborhood(body)?)
        .scope(opt_parsed(body, "scope")?.unwrap_or_default())
        .enumeration(if opt_bool(body, "pruned")?.unwrap_or(false) {
            Enumeration::Pruned
        } else {
            Enumeration::Dense
        })
        .build()
        .map_err(|e| PipelineError::invalid_plan(e.to_string()))
}

/// `"neighborhood"`: a radius number, or a token string (`"unit"`,
/// `"full"` or a radius).
pub fn neighborhood(body: &Value) -> Result<Neighborhood, PipelineError> {
    match body.field("neighborhood") {
        Some(v @ Value::Num(_)) => Ok(Neighborhood::OrderedRadius(
            v.as_f64().expect("numbers parse as f64"),
        )),
        _ => Ok(opt_parsed(body, "neighborhood")?.unwrap_or_default()),
    }
}

/// `"algorithm"`: `"optimized"` (default) | `"naive"`.
pub fn algorithm(body: &Value) -> Result<Algorithm, PipelineError> {
    match opt_str(body, "algorithm")?.unwrap_or("optimized") {
        "optimized" => Ok(Algorithm::Optimized),
        "naive" => Ok(Algorithm::Naive),
        other => Err(PipelineError::invalid_plan(format!(
            "`algorithm`: `{other}` is not optimized|naive"
        ))),
    }
}

/// The `"edits"` array of an ingest request. Each edit is an object:
/// `{"kind":"duplicate","src":N}`, `{"kind":"flip","row":N}`, or
/// `{"kind":"remove","rows":[N,…]}`.
pub fn edits(body: &Value) -> Result<Vec<RowEdit>, PipelineError> {
    let items = body
        .arr_field("edits")
        .map_err(|_| PipelineError::invalid_plan("`edits` must be an array of edit objects"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| edit(item).map_err(|e| e.map_message(|m| format!("edits[{i}]: {m}"))))
        .collect()
}

fn edit(item: &Value) -> Result<RowEdit, PipelineError> {
    let kind = item
        .str_field("kind")
        .map_err(|_| PipelineError::invalid_plan("missing string field `kind`"))?;
    match kind {
        "duplicate" => Ok(RowEdit::Duplicate {
            src: required_index(item, "src")?,
        }),
        "flip" => Ok(RowEdit::FlipLabel {
            row: required_index(item, "row")?,
        }),
        "remove" => {
            let rows = item
                .arr_field("rows")
                .map_err(|_| PipelineError::invalid_plan("`remove` needs an array field `rows`"))?;
            let rows = rows
                .iter()
                .map(|v| {
                    v.as_u64().map(|n| n as usize).ok_or_else(|| {
                        PipelineError::invalid_plan("`rows` must hold unsigned integers")
                    })
                })
                .collect::<Result<Vec<usize>, _>>()?;
            Ok(RowEdit::Remove { rows })
        }
        other => Err(PipelineError::invalid_plan(format!(
            "`kind`: `{other}` is not duplicate|flip|remove"
        ))),
    }
}

fn required_index(item: &Value, name: &str) -> Result<usize, PipelineError> {
    item.u64_field(name)
        .map(|n| n as usize)
        .map_err(|_| PipelineError::invalid_plan(format!("missing integer field `{name}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_classifiers::ModelKind;
    use remedy_core::{Scope, Technique};
    use remedy_fairness::Statistic;

    #[test]
    fn requests_parse_and_reject() {
        let req =
            parse_request("{\"op\":\"identify\",\"id\":\"r1\",\"deadline_ms\":250,\"tau\":0.2}")
                .unwrap();
        assert_eq!(req.op, "identify");
        assert_eq!(req.id.as_deref(), Some("r1"));
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(ibs_params(&req.body).unwrap().tau_c, 0.2);

        for bad in [
            "not json",
            "[1,2]",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"load\",\"id\":7}",
            "{\"op\":\"load\",\"deadline_ms\":\"soon\"}",
        ] {
            let err = parse_request(bad).expect_err("must reject");
            assert_eq!(err.kind(), ErrorKind::InvalidPlan, "input {bad:?}");
        }
    }

    #[test]
    fn params_default_like_the_cli() {
        let req = parse_request("{\"op\":\"identify\"}").unwrap();
        let params = ibs_params(&req.body).unwrap();
        assert_eq!(params.tau_c, 0.1);
        assert_eq!(params.min_size, 30);
        assert_eq!(params.neighborhood, Neighborhood::Unit);
        assert_eq!(algorithm(&req.body).unwrap(), Algorithm::Optimized);
        assert_eq!(
            opt_parsed::<Technique>(&req.body, "technique").unwrap(),
            None
        );

        let req = parse_request(
            "{\"op\":\"identify\",\"neighborhood\":1.5,\"scope\":\"leaf\",\
             \"algorithm\":\"naive\"}",
        )
        .unwrap();
        assert_eq!(
            neighborhood(&req.body).unwrap(),
            Neighborhood::OrderedRadius(1.5)
        );
        assert_eq!(
            opt_parsed::<Scope>(&req.body, "scope").unwrap(),
            Some(Scope::Leaf)
        );
        assert_eq!(algorithm(&req.body).unwrap(), Algorithm::Naive);
        assert!(ibs_params(
            &parse_request("{\"op\":\"identify\",\"tau\":\"x\"}")
                .unwrap()
                .body
        )
        .is_err());
    }

    #[test]
    fn vocabulary_fields_parse_and_reject() {
        let body = |json: &str| parse_request(json).unwrap().body;
        // a string radius parses like the CLI's `--neighborhood 1.5`
        for json in [
            "{\"op\":\"identify\",\"neighborhood\":1.5}",
            "{\"op\":\"identify\",\"neighborhood\":\"1.5\"}",
        ] {
            assert_eq!(
                neighborhood(&body(json)).unwrap(),
                Neighborhood::OrderedRadius(1.5)
            );
        }
        let req = body(
            "{\"op\":\"audit\",\"technique\":\"massaging\",\"model\":\"rf\",\
             \"stat\":\"fnr\",\"neighborhood\":\"1\"}",
        );
        assert_eq!(
            opt_parsed::<Technique>(&req, "technique").unwrap(),
            Some(Technique::Massaging)
        );
        assert_eq!(
            opt_parsed::<ModelKind>(&req, "model").unwrap(),
            Some(ModelKind::RandomForest)
        );
        assert_eq!(
            opt_parsed::<Statistic>(&req, "stat").unwrap(),
            Some(Statistic::Fnr)
        );
        assert_eq!(neighborhood(&req).unwrap(), Neighborhood::Unit);
        let err = opt_parsed::<Scope>(&body("{\"op\":\"identify\",\"scope\":\"x\"}"), "scope")
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidPlan);
        assert_eq!(err.message(), "`scope`: `x` is not lattice|leaf|top");
        let err = neighborhood(&body("{\"op\":\"identify\",\"neighborhood\":true}")).unwrap_err();
        assert_eq!(err.message(), "`neighborhood` must be a string");
    }

    #[test]
    fn edits_parse_every_kind() {
        let req = parse_request(
            "{\"op\":\"ingest\",\"edits\":[{\"kind\":\"duplicate\",\"src\":3},\
             {\"kind\":\"flip\",\"row\":1},{\"kind\":\"remove\",\"rows\":[0,5]}]}",
        )
        .unwrap();
        let parsed = edits(&req.body).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0], RowEdit::Duplicate { src: 3 });
        assert_eq!(parsed[1], RowEdit::FlipLabel { row: 1 });
        assert_eq!(parsed[2], RowEdit::Remove { rows: vec![0, 5] });

        let bad = parse_request("{\"op\":\"ingest\",\"edits\":[{\"kind\":\"warp\"}]}").unwrap();
        let err = edits(&bad.body).unwrap_err();
        assert!(err.message().starts_with("edits[0]:"), "{err}");
    }

    #[test]
    fn responses_render_and_round_trip() {
        let req = parse_request("{\"op\":\"stats\",\"id\":\"x\"}").unwrap();
        let mut fields = Fields::new();
        fields.raw("count", 3).str("text", "a\nb").f64("ratio", 0.5);
        let ok = render_ok(&req, &fields);
        let v = json::parse(&ok).unwrap();
        assert!(v.bool_field("ok").unwrap());
        assert_eq!(v.str_field("op").unwrap(), "stats");
        assert_eq!(v.str_field("id").unwrap(), "x");
        assert_eq!(v.u64_field("count").unwrap(), 3);
        assert_eq!(v.str_field("text").unwrap(), "a\nb");

        let err = render_err(Some(&req), ErrorKind::StagePanic, "boom");
        let v = json::parse(&err).unwrap();
        assert!(!v.bool_field("ok").unwrap());
        assert_eq!(v.str_field("kind").unwrap(), "stage-panic");
        let bare = render_err(None, ErrorKind::InvalidPlan, "bad line");
        assert!(json::parse(&bare).unwrap().field("op").is_none());
    }
}
