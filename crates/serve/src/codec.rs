//! JSON codecs for journal events and network snapshots.
//!
//! Determinism matters more than beauty here: `f64`s render with
//! Rust's shortest-roundtrip formatting ([`json::write_num`], the
//! number writer every JSON writer in the workspace shares), so a
//! value survives encode → decode **bit-identically**, and keys keep a
//! fixed order, so the same state always produces the same bytes —
//! which is what lets recovery tests compare whole files.
//!
//! The writers stream straight from the event or [`Network`] into a
//! byte buffer, with no intermediate [`Json`] tree; decoding goes
//! through [`minim_sim::json::parse`]. [`write_event`] and
//! [`write_snapshot`] refuse a non-finite number with
//! [`CodecError::NonFinite`], since JSON cannot carry one and the
//! decoder would reject the document. The [`encode_event`] and
//! [`encode_snapshot`] conveniences return a `String` and render such a
//! number as `null`.
//!
//! Wire schemas (compact, single-line). Every number is an `f64` on the
//! wire, so node ids carry a `.0`; the decoder accepts any integral
//! form:
//!
//! ```json
//! {"t":"join","x":1.5,"y":2.0,"r":5.0}
//! {"t":"leave","node":7.0}
//! {"t":"move","node":7.0,"x":3.0,"y":4.0}
//! {"t":"set_range","node":7.0,"range":6.5}
//! ```
//!
//! Snapshots (pretty-printed, two-space indent) carry everything
//! [`Network`] needs to reconstruct itself plus the strategy name and
//! applied-event count, and embed the source network's fingerprint so
//! a restore can self-verify. Each node is `[id, x, y, range, color]`,
//! with `null` for an uncolored node; each obstacle is `[x1, y1, x2,
//! y2]`.

use minim_core::StrategyKind;
use minim_geom::{Point, Segment};
use minim_graph::{Color, NodeId};
use minim_net::event::Event;
use minim_net::{Network, NetworkFingerprint, NodeConfig};
use minim_sim::json::{self, Json};

/// Snapshot schema version; bumped on incompatible layout changes.
pub const SNAPSHOT_VERSION: u64 = 1;

/// A decoding failure: malformed JSON or a well-formed document that
/// doesn't match the expected schema.
#[derive(Debug)]
pub enum CodecError {
    /// The text was not valid JSON.
    Parse(json::ParseError),
    /// The JSON didn't have the expected shape; the message names the
    /// missing/mistyped field.
    Schema(String),
    /// An encoder met a NaN or infinite number, which JSON cannot
    /// carry; `field` names where.
    NonFinite {
        /// The document field holding the number.
        field: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Parse(e) => write!(f, "json parse error: {e}"),
            CodecError::Schema(msg) => write!(f, "schema error: {msg}"),
            CodecError::NonFinite { field } => write!(f, "`{field}` is not a finite number"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<json::ParseError> for CodecError {
    fn from(e: json::ParseError) -> Self {
        CodecError::Parse(e)
    }
}

fn schema(msg: impl Into<String>) -> CodecError {
    CodecError::Schema(msg.into())
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    doc.get(key)
        .ok_or_else(|| schema(format!("missing `{key}`")))
}

fn f64_field(doc: &Json, key: &str) -> Result<f64, CodecError> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| schema(format!("`{key}` must be a number")))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, CodecError> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| schema(format!("`{key}` must be a non-negative integer")))
}

/// The streaming writers' output: a byte buffer plus what to do with a
/// non-finite number.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// Refuse a non-finite number (`write_*`) instead of rendering it
    /// as `null` (`encode_*`, matching [`Json::to_string_compact`]).
    strict: bool,
}

impl Writer<'_> {
    fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn num(&mut self, n: f64, field: &'static str) -> Result<(), CodecError> {
        if !json::write_num(self.out, n) {
            if self.strict {
                return Err(CodecError::NonFinite { field });
            }
            self.raw(b"null");
        }
        Ok(())
    }

    /// Ids, counts and colors: integral, so always finite.
    fn int(&mut self, n: impl Into<f64>) {
        json::write_num(self.out, n.into());
    }

    /// An array of fixed-width rows at depth 1 of the pretty layout:
    /// `[]` when empty, else one row per element and one cell per line.
    /// A `None` cell is `null`.
    fn rows<const N: usize>(
        &mut self,
        rows: impl Iterator<Item = [Option<f64>; N]>,
        field: &'static str,
    ) -> Result<(), CodecError> {
        let mut first = true;
        for row in rows {
            self.raw(if first { b"[\n    [" } else { b",\n    [" });
            first = false;
            for (i, cell) in row.into_iter().enumerate() {
                self.raw(if i == 0 { b"\n      " } else { b",\n      " });
                match cell {
                    Some(n) => self.num(n, field)?,
                    None => self.raw(b"null"),
                }
            }
            self.raw(b"\n    ]");
        }
        self.raw(if first { b"[]" } else { b"\n  ]" });
        Ok(())
    }

    fn event(&mut self, event: &Event) -> Result<(), CodecError> {
        match event {
            Event::Join { cfg } => {
                self.raw(b"{\"t\":\"join\",\"x\":");
                self.num(cfg.pos.x, "x")?;
                self.raw(b",\"y\":");
                self.num(cfg.pos.y, "y")?;
                self.raw(b",\"r\":");
                self.num(cfg.range, "r")?;
            }
            Event::Leave { node } => {
                self.raw(b"{\"t\":\"leave\",\"node\":");
                self.int(node.0);
            }
            Event::Move { node, to } => {
                self.raw(b"{\"t\":\"move\",\"node\":");
                self.int(node.0);
                self.raw(b",\"x\":");
                self.num(to.x, "x")?;
                self.raw(b",\"y\":");
                self.num(to.y, "y")?;
            }
            Event::SetRange { node, range } => {
                self.raw(b"{\"t\":\"set_range\",\"node\":");
                self.int(node.0);
                self.raw(b",\"range\":");
                self.num(*range, "range")?;
            }
        }
        self.raw(b"}");
        Ok(())
    }

    fn snapshot(
        &mut self,
        net: &Network,
        strategy: StrategyKind,
        events_applied: u64,
    ) -> Result<(), CodecError> {
        let fp = net.fingerprint();
        self.raw(b"{\n  \"v\": ");
        self.int(SNAPSHOT_VERSION as f64);
        self.raw(b",\n  \"strategy\": ");
        json::write_str(self.out, strategy.label());
        self.raw(b",\n  \"events_applied\": ");
        self.int(events_applied as f64);
        self.raw(b",\n  \"cell_hint\": ");
        self.num(net.cell_size_hint(), "cell_hint")?;
        self.raw(b",\n  \"flat\": ");
        self.raw(if net.is_flat() { b"true" } else { b"false" });
        self.raw(b",\n  \"next_id\": ");
        self.int(net.peek_next_id().0);
        self.raw(b",\n  \"fp_nodes\": ");
        self.int(fp.nodes as f64);
        self.raw(b",\n  \"fp_edges\": ");
        self.int(fp.edges as f64);
        self.raw(b",\n  \"fp_max_color\": ");
        self.int(fp.max_color);
        self.raw(b",\n  \"obstacles\": ");
        let walls = net.obstacles().iter();
        self.rows(
            walls.map(|s| [Some(s.a.x), Some(s.a.y), Some(s.b.x), Some(s.b.y)]),
            "obstacles",
        )?;
        self.raw(b",\n  \"nodes\": ");
        let nodes = net.describe_iter().map(|(id, pos, range, color)| {
            [
                Some(f64::from(id.0)),
                Some(pos.x),
                Some(pos.y),
                Some(range),
                color.map(|c| f64::from(c.index())),
            ]
        });
        self.rows(nodes, "nodes")?;
        self.raw(b"\n}");
        Ok(())
    }
}

/// Bytes the writers produce are ASCII plus the UTF-8 of strategy
/// labels, so this cannot fail.
fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the codec writes UTF-8")
}

// -------------------------------------------------------------- events

/// Appends `event` to `out` as a compact single-line JSON document.
/// A NaN or infinite coordinate or range is refused with
/// [`CodecError::NonFinite`]; `out` then holds a partial document the
/// caller must discard.
pub fn write_event(out: &mut Vec<u8>, event: &Event) -> Result<(), CodecError> {
    Writer { out, strict: true }.event(event)
}

/// [`write_event`] into a fresh `String`. A non-finite number renders
/// as `null`, giving a document [`decode_event`] rejects; journal
/// through [`write_event`] instead.
pub fn encode_event(event: &Event) -> String {
    let mut out = Vec::with_capacity(64);
    let _infallible = Writer {
        out: &mut out,
        strict: false,
    }
    .event(event);
    into_string(out)
}

/// Decodes an event from its JSON text.
pub fn decode_event(text: &str) -> Result<Event, CodecError> {
    let doc = json::parse(text)?;
    let tag = field(&doc, "t")?
        .as_str()
        .ok_or_else(|| schema("`t` must be a string"))?;
    let node_of = |doc: &Json| -> Result<NodeId, CodecError> {
        let raw = u64_field(doc, "node")?;
        u32::try_from(raw)
            .map(NodeId)
            .map_err(|_| schema("`node` out of u32 range"))
    };
    match tag {
        "join" => {
            let pos = Point::new(f64_field(&doc, "x")?, f64_field(&doc, "y")?);
            let range = f64_field(&doc, "r")?;
            if !(range.is_finite() && range >= 0.0) {
                return Err(schema("`r` must be finite and non-negative"));
            }
            Ok(Event::Join {
                cfg: NodeConfig::new(pos, range),
            })
        }
        "leave" => Ok(Event::Leave {
            node: node_of(&doc)?,
        }),
        "move" => Ok(Event::Move {
            node: node_of(&doc)?,
            to: Point::new(f64_field(&doc, "x")?, f64_field(&doc, "y")?),
        }),
        "set_range" => {
            let range = f64_field(&doc, "range")?;
            if !(range.is_finite() && range >= 0.0) {
                return Err(schema("`range` must be finite and non-negative"));
            }
            Ok(Event::SetRange {
                node: node_of(&doc)?,
                range,
            })
        }
        other => Err(schema(format!("unknown event tag `{other}`"))),
    }
}

// ----------------------------------------------------------- snapshots

/// A decoded snapshot: the reconstructed network plus the engine
/// metadata stored alongside it.
pub struct SnapshotDoc {
    /// The restored network state.
    pub net: Network,
    /// The strategy that produced (and must continue) this state.
    pub strategy: StrategyKind,
    /// Events applied to reach this state since genesis.
    pub events_applied: u64,
}

fn strategy_by_name(name: &str) -> Option<StrategyKind> {
    StrategyKind::ALL.into_iter().find(|k| k.label() == name)
}

/// Appends the full network state to `out` as the pretty-printed v1
/// snapshot document, streaming from `net` with no intermediate tree.
/// A non-finite number is refused with [`CodecError::NonFinite`]; `out`
/// then holds a partial document the caller must discard.
pub fn write_snapshot(
    out: &mut Vec<u8>,
    net: &Network,
    strategy: StrategyKind,
    events_applied: u64,
) -> Result<(), CodecError> {
    Writer { out, strict: true }.snapshot(net, strategy, events_applied)
}

/// [`write_snapshot`] into a fresh `String`. A non-finite number
/// renders as `null`, giving a document [`decode_snapshot`] rejects.
pub fn encode_snapshot(net: &Network, strategy: StrategyKind, events_applied: u64) -> String {
    let mut out = Vec::new();
    let _infallible = Writer {
        out: &mut out,
        strict: false,
    }
    .snapshot(net, strategy, events_applied);
    into_string(out)
}

/// Decodes and **verifies** a snapshot: the network is rebuilt
/// (obstacles first, then nodes in id order, then colors), and its
/// fingerprint must match the one stored at encode time — a mismatch
/// means the document was damaged in a CRC-preserving way or the
/// rebuild logic has drifted, and the snapshot is rejected.
pub fn decode_snapshot(text: &str) -> Result<SnapshotDoc, CodecError> {
    let doc = json::parse(text)?;
    let version = u64_field(&doc, "v")?;
    if version != SNAPSHOT_VERSION {
        return Err(schema(format!("unsupported snapshot version {version}")));
    }
    let strategy_name = field(&doc, "strategy")?
        .as_str()
        .ok_or_else(|| schema("`strategy` must be a string"))?;
    let strategy = strategy_by_name(strategy_name)
        .ok_or_else(|| schema(format!("unknown strategy `{strategy_name}`")))?;
    let events_applied = u64_field(&doc, "events_applied")?;
    let cell_hint = f64_field(&doc, "cell_hint")?;
    let flat = field(&doc, "flat")?
        .as_bool()
        .ok_or_else(|| schema("`flat` must be a boolean"))?;
    let next_id = u32::try_from(u64_field(&doc, "next_id")?)
        .map_err(|_| schema("`next_id` out of u32 range"))?;

    let mut net = if flat {
        Network::new_flat(cell_hint)
    } else {
        Network::new(cell_hint)
    };

    // Obstacles go in while the network is empty: `add_obstacle` rewires
    // affected links, and with zero nodes that's free.
    for wall in field(&doc, "obstacles")?
        .as_arr()
        .ok_or_else(|| schema("`obstacles` must be an array"))?
    {
        let quad = wall
            .as_arr()
            .filter(|q| q.len() == 4)
            .ok_or_else(|| schema("each obstacle must be [x1,y1,x2,y2]"))?;
        let coord = |i: usize| -> Result<f64, CodecError> {
            quad[i]
                .as_f64()
                .ok_or_else(|| schema("obstacle coordinates must be numbers"))
        };
        net.add_obstacle(Segment::new(
            Point::new(coord(0)?, coord(1)?),
            Point::new(coord(2)?, coord(3)?),
        ));
    }

    // Nodes are emitted by `describe` in ascending id order; insert in
    // that order, then lay colors on top.
    let mut colors: Vec<(NodeId, Color)> = Vec::new();
    for row in field(&doc, "nodes")?
        .as_arr()
        .ok_or_else(|| schema("`nodes` must be an array"))?
    {
        let cells = row
            .as_arr()
            .filter(|r| r.len() == 5)
            .ok_or_else(|| schema("each node must be [id,x,y,range,color]"))?;
        let id = cells[0]
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .map(NodeId)
            .ok_or_else(|| schema("node id must be a u32"))?;
        let x = cells[1]
            .as_f64()
            .ok_or_else(|| schema("node x must be a number"))?;
        let y = cells[2]
            .as_f64()
            .ok_or_else(|| schema("node y must be a number"))?;
        let range = cells[3]
            .as_f64()
            .filter(|r| r.is_finite() && *r >= 0.0)
            .ok_or_else(|| schema("node range must be finite and non-negative"))?;
        net.insert_node(id, NodeConfig::new(Point::new(x, y), range));
        match &cells[4] {
            Json::Null => {}
            c => {
                let idx = c
                    .as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .filter(|v| *v >= 1)
                    .ok_or_else(|| schema("node color must be a positive integer"))?;
                colors.push((id, Color::new(idx)));
            }
        }
    }
    for (id, c) in colors {
        net.set_color(id, c);
    }
    net.restore_id_watermark(next_id);

    let stored = NetworkFingerprint {
        nodes: field(&doc, "fp_nodes")?
            .as_usize()
            .ok_or_else(|| schema("`fp_nodes` must be an integer"))?,
        next_id,
        edges: field(&doc, "fp_edges")?
            .as_usize()
            .ok_or_else(|| schema("`fp_edges` must be an integer"))?,
        max_color: u32::try_from(u64_field(&doc, "fp_max_color")?)
            .map_err(|_| schema("`fp_max_color` out of u32 range"))?,
    };
    let rebuilt = net.fingerprint();
    if rebuilt != stored {
        return Err(schema(format!(
            "snapshot fingerprint mismatch: stored {stored:?}, rebuilt {rebuilt:?}"
        )));
    }

    Ok(SnapshotDoc {
        net,
        strategy,
        events_applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Join {
                cfg: NodeConfig::new(Point::new(0.125, -3.75), 5.5),
            },
            Event::Leave { node: NodeId(3) },
            Event::Move {
                node: NodeId(1),
                to: Point::new(0.1 + 0.2, 9.0), // deliberately non-representable sum
            },
            Event::SetRange {
                node: NodeId(2),
                range: 7.25,
            },
        ]
    }

    /// The `Json`-tree encoders the streaming writers replaced, kept
    /// here as the byte-identity oracle.
    fn tree_event(event: &Event) -> String {
        let doc = match event {
            Event::Join { cfg } => Json::obj(vec![
                ("t", Json::Str("join".into())),
                ("x", Json::Num(cfg.pos.x)),
                ("y", Json::Num(cfg.pos.y)),
                ("r", Json::Num(cfg.range)),
            ]),
            Event::Leave { node } => Json::obj(vec![
                ("t", Json::Str("leave".into())),
                ("node", Json::Num(f64::from(node.0))),
            ]),
            Event::Move { node, to } => Json::obj(vec![
                ("t", Json::Str("move".into())),
                ("node", Json::Num(f64::from(node.0))),
                ("x", Json::Num(to.x)),
                ("y", Json::Num(to.y)),
            ]),
            Event::SetRange { node, range } => Json::obj(vec![
                ("t", Json::Str("set_range".into())),
                ("node", Json::Num(f64::from(node.0))),
                ("range", Json::Num(*range)),
            ]),
        };
        doc.to_string_compact()
    }

    fn tree_snapshot(net: &Network, strategy: StrategyKind, events_applied: u64) -> String {
        let fp = net.fingerprint();
        let nodes: Vec<Json> = net
            .describe()
            .into_iter()
            .map(|(id, pos, range, color)| {
                Json::Arr(vec![
                    Json::Num(f64::from(id.0)),
                    Json::Num(pos.x),
                    Json::Num(pos.y),
                    Json::Num(range),
                    color.map_or(Json::Null, |c| Json::Num(f64::from(c.index()))),
                ])
            })
            .collect();
        let obstacles: Vec<Json> = net
            .obstacles()
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Num(s.a.x),
                    Json::Num(s.a.y),
                    Json::Num(s.b.x),
                    Json::Num(s.b.y),
                ])
            })
            .collect();
        Json::obj(vec![
            ("v", Json::Num(SNAPSHOT_VERSION as f64)),
            ("strategy", Json::Str(strategy.label().into())),
            ("events_applied", Json::Num(events_applied as f64)),
            ("cell_hint", Json::Num(net.cell_size_hint())),
            ("flat", Json::Bool(net.is_flat())),
            ("next_id", Json::Num(f64::from(net.peek_next_id().0))),
            ("fp_nodes", Json::Num(fp.nodes as f64)),
            ("fp_edges", Json::Num(fp.edges as f64)),
            ("fp_max_color", Json::Num(f64::from(fp.max_color))),
            ("obstacles", Json::Arr(obstacles)),
            ("nodes", Json::Arr(nodes)),
        ])
        .to_string_pretty()
    }

    /// Coordinates across every rendering form: integral, fractional,
    /// exponent, signed zero, and (one case in eight) non-finite.
    fn coord() -> impl Strategy<Value = f64> {
        (0u32..8, -1e6f64..1e6, 0u64..u64::MAX).prop_map(|(form, x, bits)| match form {
            0 => x.round(),
            1 => x * 1e-9,
            2 => x * 1e14,
            3 => -0.0,
            4 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(bits % 3) as usize],
            5 => f64::from_bits(bits),
            _ => x,
        })
    }

    fn event() -> impl Strategy<Value = Event> {
        (0u32..4, 0u32..u32::MAX, coord(), coord(), coord()).prop_map(|(kind, id, a, b, c)| {
            let node = NodeId(id);
            match kind {
                0 => Event::Join {
                    cfg: NodeConfig {
                        pos: Point::new(a, b),
                        range: c,
                    },
                },
                1 => Event::Leave { node },
                2 => Event::Move {
                    node,
                    to: Point::new(a, b),
                },
                _ => Event::SetRange { node, range: c },
            }
        })
    }

    proptest! {
        #[test]
        fn streaming_event_writer_matches_tree_oracle(e in event()) {
            let oracle = tree_event(&e);
            prop_assert_eq!(encode_event(&e), oracle.clone());
            // The writer refuses exactly the events the tree wrote
            // `null` into, and otherwise writes the same bytes.
            let mut out = Vec::new();
            match write_event(&mut out, &e) {
                Ok(()) => prop_assert_eq!(String::from_utf8(out).unwrap(), oracle),
                Err(CodecError::NonFinite { .. }) => prop_assert!(oracle.contains("null")),
                Err(other) => prop_assert!(false, "unexpected error {other}"),
            }
        }

        #[test]
        fn streaming_snapshot_writer_matches_tree_oracle(
            joins in proptest::collection::vec((0.0f64..40.0, 0.0f64..40.0, 1.0f64..9.0), 0..30),
            raw in proptest::collection::vec((coord(), coord(), 0.0f64..9.0), 0..6),
            walls in proptest::collection::vec((coord(), coord(), 0.0f64..40.0, 0.0f64..40.0), 0..3),
            kind in 0usize..3,
            events_applied in 0u64..u64::MAX,
            flat in 0u32..2,
        ) {
            let kind = StrategyKind::ALL[kind];
            let mut net = if flat == 1 { Network::new_flat(6.5) } else { Network::new(6.5) };
            for (x1, y1, x2, y2) in walls {
                if x1.is_finite() && y1.is_finite() {
                    net.add_obstacle(Segment::new(Point::new(x1, y1), Point::new(x2, y2)));
                }
            }
            let mut strategy = kind.build();
            for (x, y, r) in joins {
                strategy.apply(&mut net, &Event::Join { cfg: NodeConfig::new(Point::new(x, y), r) });
            }
            // Uncolored nodes, some with coordinates JSON cannot carry.
            for (x, y, r) in raw {
                if x.is_finite() && y.is_finite() {
                    let id = net.peek_next_id();
                    net.insert_node(id, NodeConfig::new(Point::new(x, y), r));
                }
            }
            let oracle = tree_snapshot(&net, kind, events_applied);
            prop_assert_eq!(encode_snapshot(&net, kind, events_applied), oracle.clone());
            // Uncolored nodes write `null` too, so only a refusal is
            // checked against the oracle's non-finite cells.
            let mut out = Vec::new();
            match write_snapshot(&mut out, &net, kind, events_applied) {
                Ok(()) => prop_assert_eq!(String::from_utf8(out).unwrap(), oracle),
                Err(CodecError::NonFinite { .. }) => {
                    prop_assert!(net.describe().iter().any(|n| !(n.1.x.is_finite() && n.1.y.is_finite()))
                        || net.obstacles().iter().any(|w| !(w.b.x.is_finite() && w.b.y.is_finite())))
                }
                Err(other) => prop_assert!(false, "unexpected error {other}"),
            }
        }
    }

    #[test]
    fn event_golden_bytes() {
        let cases = [
            (
                Event::Join {
                    cfg: NodeConfig::new(Point::new(1.5, 2.0), 5.0),
                },
                r#"{"t":"join","x":1.5,"y":2.0,"r":5.0}"#,
            ),
            (
                Event::Leave { node: NodeId(7) },
                r#"{"t":"leave","node":7.0}"#,
            ),
            (
                Event::Move {
                    node: NodeId(7),
                    to: Point::new(3.0, 4.0),
                },
                r#"{"t":"move","node":7.0,"x":3.0,"y":4.0}"#,
            ),
            (
                Event::SetRange {
                    node: NodeId(7),
                    range: 6.5,
                },
                r#"{"t":"set_range","node":7.0,"range":6.5}"#,
            ),
            (
                Event::Move {
                    node: NodeId(u32::MAX),
                    to: Point::new(-0.0, 1e-7),
                },
                r#"{"t":"move","node":4294967295.0,"x":-0.0,"y":1e-7}"#,
            ),
        ];
        let mut out = Vec::new();
        for (event, golden) in cases {
            assert_eq!(encode_event(&event), golden);
            out.clear();
            write_event(&mut out, &event).unwrap();
            assert_eq!(out, golden.as_bytes());
            assert_eq!(decode_event(golden).unwrap(), event);
        }
    }

    #[test]
    fn snapshot_golden_bytes() {
        let mut net = Network::new(6.0);
        net.add_obstacle(Segment::new(Point::new(3.0, -10.0), Point::new(3.0, 10.0)));
        net.insert_node(NodeId(0), NodeConfig::new(Point::new(0.0, 0.0), 4.0));
        net.insert_node(NodeId(1), NodeConfig::new(Point::new(1.5, 0.25), 2.5));
        net.insert_node(NodeId(2), NodeConfig::new(Point::new(4.0, 0.0), 1.0));
        net.set_color(NodeId(0), Color::new(1));
        net.set_color(NodeId(2), Color::new(1));
        net.restore_id_watermark(3);
        let golden = GOLDEN_SNAPSHOT;
        assert_eq!(tree_snapshot(&net, StrategyKind::Minim, 12), golden);
        assert_eq!(encode_snapshot(&net, StrategyKind::Minim, 12), golden);
        let mut out = Vec::new();
        write_snapshot(&mut out, &net, StrategyKind::Minim, 12).unwrap();
        assert_eq!(out, golden.as_bytes());
        let doc = decode_snapshot(golden).unwrap();
        assert_eq!(doc.net.describe(), net.describe());
        assert_eq!(doc.events_applied, 12);
    }

    /// Node 2 sits behind the wall, so the only links are 0 ↔ 1; node
    /// 1 is uncolored.
    const GOLDEN_SNAPSHOT: &str = r#"{
  "v": 1.0,
  "strategy": "Minim",
  "events_applied": 12.0,
  "cell_hint": 6.0,
  "flat": false,
  "next_id": 3.0,
  "fp_nodes": 3.0,
  "fp_edges": 2.0,
  "fp_max_color": 1.0,
  "obstacles": [
    [
      3.0,
      -10.0,
      3.0,
      10.0
    ]
  ],
  "nodes": [
    [
      0.0,
      0.0,
      0.0,
      4.0,
      1.0
    ],
    [
      1.0,
      1.5,
      0.25,
      2.5,
      null
    ],
    [
      2.0,
      4.0,
      0.0,
      1.0,
      1.0
    ]
  ]
}"#;

    #[test]
    fn non_finite_join_is_refused_by_the_writer() {
        // `NodeConfig`'s fields are public, so `NodeConfig::new`'s
        // range check can be bypassed.
        let nan_join = Event::Join {
            cfg: NodeConfig {
                pos: Point::new(f64::NAN, 1.0),
                range: 5.0,
            },
        };
        let mut out = Vec::new();
        assert!(matches!(
            write_event(&mut out, &nan_join),
            Err(CodecError::NonFinite { field: "x" })
        ));
        let inf_range = Event::SetRange {
            node: NodeId(1),
            range: f64::INFINITY,
        };
        assert!(matches!(
            write_event(&mut Vec::new(), &inf_range),
            Err(CodecError::NonFinite { field: "range" })
        ));
        // The `String` convenience keeps the tree writer's `null`, which
        // the decoder rejects.
        assert_eq!(
            encode_event(&nan_join),
            r#"{"t":"join","x":null,"y":1.0,"r":5.0}"#
        );
        assert!(decode_event(&encode_event(&nan_join)).is_err());
    }

    #[test]
    fn events_roundtrip_bit_identically() {
        for e in sample_events() {
            let text = encode_event(&e);
            let back = decode_event(&text).unwrap();
            assert_eq!(back, e, "through {text}");
            // Second generation must be byte-identical (stable output).
            assert_eq!(encode_event(&back), text);
        }
    }

    #[test]
    fn event_decode_rejects_malformed_documents() {
        assert!(matches!(
            decode_event("{\"t\":\"join\",\"x\":1.0}"),
            Err(CodecError::Schema(_))
        ));
        assert!(matches!(
            decode_event("{\"t\":\"warp\",\"node\":1}"),
            Err(CodecError::Schema(_))
        ));
        assert!(matches!(
            decode_event("{\"t\":\"leave\",\"node\":-1}"),
            Err(CodecError::Schema(_))
        ));
        assert!(matches!(
            decode_event("not json"),
            Err(CodecError::Parse(_))
        ));
        // Trailing garbage is a parse error (hardened json module).
        assert!(matches!(
            decode_event("{\"t\":\"leave\",\"node\":1} extra"),
            Err(CodecError::Parse(_))
        ));
    }

    #[test]
    fn snapshot_roundtrips_a_colored_network() {
        let mut strategy = StrategyKind::Minim.build();
        let mut net = Network::new(6.0);
        net.add_obstacle(Segment::new(Point::new(3.0, -10.0), Point::new(3.0, 10.0)));
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        use rand::{Rng, SeedableRng};
        for _ in 0..40 {
            let cfg = NodeConfig::new(
                Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0)),
                rng.gen_range(3.0..8.0),
            );
            strategy.apply(&mut net, &Event::Join { cfg });
        }
        strategy.apply(&mut net, &Event::Leave { node: NodeId(5) });

        let text = encode_snapshot(&net, StrategyKind::Minim, 41);
        let doc = decode_snapshot(&text).unwrap();
        assert_eq!(doc.strategy, StrategyKind::Minim);
        assert_eq!(doc.events_applied, 41);
        assert_eq!(doc.net.state_digest(), net.state_digest());
        assert_eq!(doc.net.describe(), net.describe());
        assert_eq!(doc.net.obstacles(), net.obstacles());
        // Re-encoding the restored network reproduces the exact bytes.
        assert_eq!(encode_snapshot(&doc.net, doc.strategy, 41), text);
    }

    #[test]
    fn snapshot_rejects_fingerprint_mismatch() {
        let mut net = Network::new(5.0);
        net.insert_node(NodeId(0), NodeConfig::new(Point::new(0.0, 0.0), 4.0));
        let text = encode_snapshot(&net, StrategyKind::Cp, 1);
        let tampered = text.replace("\"fp_nodes\": 1", "\"fp_nodes\": 2");
        assert_ne!(tampered, text, "replacement must hit");
        assert!(matches!(
            decode_snapshot(&tampered),
            Err(CodecError::Schema(_))
        ));
    }

    #[test]
    fn snapshot_rejects_bad_version() {
        let mut net = Network::new(5.0);
        net.insert_node(NodeId(0), NodeConfig::new(Point::new(0.0, 0.0), 4.0));
        let text = encode_snapshot(&net, StrategyKind::Bbb, 1);
        let bumped = text.replace("\"v\": 1", "\"v\": 99");
        assert!(matches!(
            decode_snapshot(&bumped),
            Err(CodecError::Schema(_))
        ));
    }
}
