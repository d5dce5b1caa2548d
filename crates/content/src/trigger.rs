//! Designer-authored event triggers.
//!
//! The paper lists "triggers for in-game events" among the content that is
//! really software but lives in data files. A trigger binds an *event*
//! (entering an area, a timer, a stat crossing a threshold, a named custom
//! event) to guarded *actions* (set a component, spawn a template, emit a
//! follow-up event, run a script). This crate parses, validates and
//! patches triggers and stays free of engine dependencies; the umbrella
//! crate's `TriggerRunner` fires them on a live world, reading crossings
//! from the world's change stream and compiling each guard to one of the
//! engine's query predicates.

use std::fmt;
use std::str::FromStr;

use crate::gdml::{Element, GdmlError};
use crate::value::{Value, ValueType};

/// A rectangular world region (axis-aligned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    pub x: f32,
    pub y: f32,
    pub w: f32,
    pub h: f32,
}

impl Region {
    /// True when point `(px, py)` lies inside (closed on min edges, open on
    /// max edges so adjacent regions do not double-fire).
    pub fn contains(&self, px: f32, py: f32) -> bool {
        px >= self.x && px < self.x + self.w && py >= self.y && py < self.y + self.h
    }
}

/// What kind of event a trigger listens for.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An entity's position entered the region this tick.
    EnterArea(Region),
    /// An entity's position left the region this tick.
    ExitArea(Region),
    /// Fires every `period` seconds of game time.
    Timer { period: f32 },
    /// A watched component dropped below a threshold this tick.
    StatBelow { component: String, threshold: f64 },
    /// A named event emitted by scripts or other triggers.
    Custom(String),
}

/// Comparison operators for trigger guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn parse(s: &str) -> Option<CmpOp> {
        match s {
            "eq" => Some(CmpOp::Eq),
            "ne" => Some(CmpOp::Ne),
            "lt" => Some(CmpOp::Lt),
            "le" => Some(CmpOp::Le),
            "gt" => Some(CmpOp::Gt),
            "ge" => Some(CmpOp::Ge),
            _ => None,
        }
    }
}

/// A guard: `component op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    pub component: String,
    pub op: CmpOp,
    /// Literal text, parsed by the column's type when the guard is
    /// compiled against a world.
    pub literal: String,
}

/// An action a fired trigger requests from the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Set `component` to the parsed literal (type comes from the target
    /// column at apply time).
    Set { component: String, literal: String },
    /// Emit a named custom event (may chain into other triggers).
    Emit { event: String },
    /// Spawn an entity from a template at a position.
    Spawn { template: String, x: f32, y: f32 },
    /// Run a named script on the triggering entity.
    RunScript { script: String },
}

/// A complete trigger definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    pub id: String,
    pub event: EventKind,
    pub conditions: Vec<Condition>,
    pub actions: Vec<Action>,
    /// Fire at most once (chest loot, one-shot cutscenes).
    pub once: bool,
}

impl Trigger {
    /// Parse from a `<trigger>` element.
    pub fn from_gdml(el: &Element) -> Result<Self, TriggerError> {
        if el.name != "trigger" {
            return Err(TriggerError::WrongElement(el.name.clone()));
        }
        let id = el.require_attr("id")?.to_string();
        let region = || -> Result<Region, TriggerError> {
            Ok(Region {
                x: number(el, &id, "x", false)?,
                y: number(el, &id, "y", false)?,
                w: number(el, &id, "w", true)?,
                h: number(el, &id, "h", true)?,
            })
        };
        let kind = el.require_attr("event")?;
        let event = match kind {
            "enter_area" => EventKind::EnterArea(region()?),
            "exit_area" => EventKind::ExitArea(region()?),
            "timer" => EventKind::Timer {
                period: number(el, &id, "period", true)?,
            },
            "stat_below" => EventKind::StatBelow {
                component: el.require_attr("component")?.to_string(),
                threshold: number(el, &id, "threshold", false)?,
            },
            "custom" => EventKind::Custom(el.require_attr("name")?.to_string()),
            other => {
                return Err(TriggerError::UnknownEvent {
                    trigger: id,
                    event: other.to_string(),
                })
            }
        };
        let once = el.attr("once").map(|v| v == "true").unwrap_or(false);

        let mut conditions = Vec::new();
        for w in el.children_named("when") {
            let op_raw = w.require_attr("op")?;
            let op = CmpOp::parse(op_raw).ok_or_else(|| TriggerError::UnknownOp {
                trigger: id.clone(),
                op: op_raw.to_string(),
            })?;
            conditions.push(Condition {
                component: w.require_attr("component")?.to_string(),
                op,
                literal: w.require_attr("value")?.to_string(),
            });
        }

        let mut actions = Vec::new();
        for a in el.children_named("action") {
            let kind = a.require_attr("kind")?;
            let action = match kind {
                "set" => Action::Set {
                    component: a.require_attr("component")?.to_string(),
                    literal: a.require_attr("value")?.to_string(),
                },
                "emit" => Action::Emit {
                    event: a.require_attr("event")?.to_string(),
                },
                "spawn" => Action::Spawn {
                    template: a.require_attr("template")?.to_string(),
                    x: number(a, &id, "x", false)?,
                    y: number(a, &id, "y", false)?,
                },
                "run_script" => Action::RunScript {
                    script: a.require_attr("script")?.to_string(),
                },
                other => {
                    return Err(TriggerError::UnknownAction {
                        trigger: id,
                        action: other.to_string(),
                    })
                }
            };
            actions.push(action);
        }
        if actions.is_empty() {
            return Err(TriggerError::NoActions(id));
        }
        Ok(Trigger {
            id,
            event,
            conditions,
            actions,
            once,
        })
    }
}

/// Attribute `attr` of `el` as a finite number, and a positive one when
/// `positive` is set. Designer files are outside input: a NaN or infinite
/// period, threshold, region or spawn point, or an empty region, gives a
/// trigger that never fires or spawns nowhere, so it is refused here.
fn number<T>(el: &Element, trigger: &str, attr: &str, positive: bool) -> Result<T, TriggerError>
where
    T: FromStr + Into<f64> + Copy,
{
    let raw = el.require_attr(attr)?;
    match raw.parse::<T>() {
        Ok(n) if n.into().is_finite() && (!positive || n.into() > 0.0) => Ok(n),
        _ => Err(TriggerError::BadNumber {
            trigger: trigger.to_string(),
            attr: attr.to_string(),
            text: raw.to_string(),
        }),
    }
}

/// Errors in trigger definitions.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerError {
    WrongElement(String),
    Gdml(GdmlError),
    UnknownEvent { trigger: String, event: String },
    UnknownOp { trigger: String, op: String },
    UnknownAction { trigger: String, action: String },
    BadNumber { trigger: String, attr: String, text: String },
    NoActions(String),
    DuplicateId(String),
}

impl fmt::Display for TriggerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerError::WrongElement(n) => write!(f, "expected <trigger>, found <{n}>"),
            TriggerError::Gdml(e) => write!(f, "{e}"),
            TriggerError::UnknownEvent { trigger, event } => {
                write!(f, "trigger {trigger}: unknown event kind {event:?}")
            }
            TriggerError::UnknownOp { trigger, op } => {
                write!(f, "trigger {trigger}: unknown comparison {op:?}")
            }
            TriggerError::UnknownAction { trigger, action } => {
                write!(f, "trigger {trigger}: unknown action kind {action:?}")
            }
            TriggerError::BadNumber { trigger, attr, text } => {
                write!(f, "trigger {trigger}: attribute {attr}={text:?} is not a valid number")
            }
            TriggerError::NoActions(id) => write!(f, "trigger {id} has no actions"),
            TriggerError::DuplicateId(id) => write!(f, "duplicate trigger id {id}"),
        }
    }
}

impl std::error::Error for TriggerError {}

impl From<GdmlError> for TriggerError {
    fn from(e: GdmlError) -> Self {
        TriggerError::Gdml(e)
    }
}

/// The triggers of one content bundle, in definition order, with unique
/// ids.
#[derive(Debug, Clone, Default)]
pub struct TriggerSet {
    triggers: Vec<Trigger>,
}

impl TriggerSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse every `<trigger>` child of a `<triggers>` root. Ids must be
    /// unique.
    pub fn from_gdml(root: &Element) -> Result<Self, TriggerError> {
        let mut set = TriggerSet::new();
        for el in root.children_named("trigger") {
            let t = Trigger::from_gdml(el)?;
            set.add(t)?;
        }
        Ok(set)
    }

    /// Add a trigger; ids must be unique.
    pub fn add(&mut self, t: Trigger) -> Result<(), TriggerError> {
        if self.triggers.iter().any(|x| x.id == t.id) {
            return Err(TriggerError::DuplicateId(t.id));
        }
        self.triggers.push(t);
        Ok(())
    }

    /// Number of triggers.
    pub fn len(&self) -> usize {
        self.triggers.len()
    }

    /// True when no triggers are registered.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }

    /// Trigger by id.
    pub fn get(&self, id: &str) -> Option<&Trigger> {
        self.triggers.iter().find(|t| t.id == id)
    }

    /// Iterate all triggers in definition order.
    pub fn iter(&self) -> impl Iterator<Item = &Trigger> {
        self.triggers.iter()
    }
}

/// Parse a typed value for a [`Action::Set`] literal once the engine knows
/// the column type.
pub fn parse_set_literal(ty: ValueType, literal: &str) -> Option<Value> {
    Value::parse_as(ty, literal).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gdml;

    #[test]
    fn parse_errors() {
        let bad_event = gdml::parse(
            r#"<triggers><trigger id="x" event="lunar_eclipse"><action kind="emit" event="e"/></trigger></triggers>"#,
        )
        .unwrap();
        assert!(matches!(
            TriggerSet::from_gdml(&bad_event).unwrap_err(),
            TriggerError::UnknownEvent { .. }
        ));

        let no_actions = gdml::parse(
            r#"<triggers><trigger id="x" event="custom" name="e"/></triggers>"#,
        )
        .unwrap();
        assert!(matches!(
            TriggerSet::from_gdml(&no_actions).unwrap_err(),
            TriggerError::NoActions(_)
        ));

        let dup = gdml::parse(
            r#"<triggers>
                 <trigger id="x" event="custom" name="e"><action kind="emit" event="a"/></trigger>
                 <trigger id="x" event="custom" name="f"><action kind="emit" event="b"/></trigger>
               </triggers>"#,
        )
        .unwrap();
        assert!(matches!(
            TriggerSet::from_gdml(&dup).unwrap_err(),
            TriggerError::DuplicateId(_)
        ));

        let bad_period = gdml::parse(
            r#"<triggers><trigger id="x" event="timer" period="-2"><action kind="emit" event="e"/></trigger></triggers>"#,
        )
        .unwrap();
        assert!(matches!(
            TriggerSet::from_gdml(&bad_period).unwrap_err(),
            TriggerError::BadNumber { .. }
        ));

        let bad_op = gdml::parse(
            r#"<triggers><trigger id="x" event="custom" name="e">
                 <when component="hp" op="approximately" value="5"/>
                 <action kind="emit" event="e2"/>
               </trigger></triggers>"#,
        )
        .unwrap();
        assert!(matches!(
            TriggerSet::from_gdml(&bad_op).unwrap_err(),
            TriggerError::UnknownOp { .. }
        ));

        // every number a trigger parses is finite, a region is non-empty:
        // (event attributes, action attributes, the attribute refused)
        let area = r#"event="enter_area" x="0" y="0" w="5" h="5""#;
        let emit = r#"kind="emit" event="e""#;
        for (event, action, attr) in [
            (r#"event="timer" period="NaN""#, emit, "period"),
            (r#"event="timer" period="inf""#, emit, "period"),
            (r#"event="stat_below" component="hp" threshold="NaN""#, emit, "threshold"),
            (r#"event="exit_area" x="NaN" y="0" w="5" h="5""#, emit, "x"),
            (r#"event="enter_area" x="0" y="-inf" w="5" h="5""#, emit, "y"),
            (r#"event="enter_area" x="0" y="0" w="-5" h="NaN""#, emit, "w"),
            (r#"event="enter_area" x="0" y="0" w="5" h="NaN""#, emit, "h"),
            (r#"event="enter_area" x="0" y="0" w="5" h="0""#, emit, "h"),
            (area, r#"kind="spawn" template="imp" x="NaN" y="inf""#, "x"),
            (area, r#"kind="spawn" template="imp" x="1" y="inf""#, "y"),
        ] {
            let src = format!(
                r#"<triggers><trigger id="x" {event}><action {action}/></trigger></triggers>"#
            );
            let err = TriggerSet::from_gdml(&gdml::parse(&src).unwrap()).unwrap_err();
            assert!(
                matches!(&err, TriggerError::BadNumber { attr: a, .. } if a == attr),
                "{src}: {err:?}"
            );
        }
    }

    #[test]
    fn region_edges_half_open() {
        let r = Region {
            x: 0.0,
            y: 0.0,
            w: 10.0,
            h: 10.0,
        };
        assert!(r.contains(0.0, 0.0));
        assert!(!r.contains(10.0, 5.0));
        assert!(!r.contains(5.0, 10.0));
    }

    #[test]
    fn set_literal_parses_with_column_type() {
        assert_eq!(
            parse_set_literal(ValueType::Bool, "true"),
            Some(Value::Bool(true))
        );
        assert_eq!(parse_set_literal(ValueType::Int, "banana"), None);
    }
}
