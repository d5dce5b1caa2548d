//! # gamedb-content
//!
//! Data-driven game content, per *Database Research in Computer Games*
//! (SIGMOD 2009): "the game content is separated as much as possible from
//! the game software, and placed in auxiliary data files" — including
//! "things that we think of as software, such as character behavior and
//! triggers for in-game events".
//!
//! ## Contents
//!
//! * [`gdml`] — the XML-subset markup all content is written in.
//! * [`value`] — the typed value domain ([`Value`], [`ValueType`]) shared
//!   with the engine, scripts, and persistence.
//! * [`template`] — entity templates with inheritance
//!   ([`TemplateLibrary`]).
//! * [`trigger`] — designer event triggers ([`TriggerSet`]).
//! * [`ui`] — WoW-style declarative UI specs ([`UiSpec`]).
//! * [`bundle`] — whole content bundles with cross-artifact validation
//!   ([`ContentBundle`]).
//! * [`patch`] — versioned expansion-pack overlays with conflict
//!   detection ([`ContentPatch`]).
//!
//! ```
//! use gamedb_content::ContentBundle;
//!
//! let bundle = ContentBundle::from_gdml_str(r#"
//!   <content>
//!     <templates>
//!       <template name="imp" tags="hostile">
//!         <component name="hp" type="float" default="25"/>
//!       </template>
//!     </templates>
//!   </content>"#).unwrap();
//! assert!(bundle.validate().is_empty());
//! let imp = bundle.templates.resolve("imp").unwrap();
//! assert!(imp.has_tag("hostile"));
//! ```

pub mod bundle;
pub mod gdml;
pub mod patch;
pub mod template;
pub mod trigger;
pub mod ui;
pub mod value;

pub use bundle::{ContentBundle, ContentError};
pub use gdml::{Element, GdmlError, Node};
pub use patch::{
    apply_all, ArtifactKind, ContentPatch, PatchConflict, PatchError, PatchReport,
};
pub use template::{ComponentDef, EntityTemplate, ResolvedTemplate, TemplateError, TemplateLibrary};
pub use trigger::{Action, CmpOp, Condition, EventKind, Region, Trigger, TriggerError, TriggerSet};
pub use ui::{Anchor, AnchorPoint, Rect, UiError, UiSpec, Widget, WidgetKind};
pub use value::{Value, ValueParseError, ValueType};
