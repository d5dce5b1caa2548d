//! # gamedb-script
//!
//! GSL — the designer scripting language of this workspace, implementing
//! the scripting-language story of *Database Research in Computer Games*
//! (SIGMOD 2009): designers author entity behaviour in data files; the
//! engine type-checks it, optionally *restricts* it (no iteration, no
//! recursion — the measure the paper reports studios taking to stop
//! accidentally-quadratic scripts), and executes it as bytecode run
//! set-at-a-time over up to 1,024 entities at once, its neighborhood
//! operations served by the spatial index.
//!
//! ## Contents
//!
//! * [`token`] / [`parser`] / [`ast`] — lexer, recursive-descent parser,
//!   AST with pretty-printer.
//! * [`types`] — type checker and the Full/Restricted language levels.
//! * [`interp`] — tree-walking interpreter emitting state–effect writes:
//!   the oracle the VM is tested against, not an engine executor.
//! * [`optimize`](mod@optimize) — AST optimizer: constant folding, dead code
//!   elimination, and foreach-to-aggregate rewriting.
//! * [`vm`] — register-based bytecode VM: [`vm::compile_program`] lowers
//!   the optimized AST to a dense instruction stream with pre-resolved
//!   column ids and pre-built query handles; [`vm::Vm`] runs it
//!   set-at-a-time over register columns, one lane per entity. Every
//!   script the type checker accepts lowers (recursion included), and
//!   [`engine::ScriptEngine`] runs every script on it.
//!
//! ## A complete example
//!
//! ```
//! use gamedb_script::{parse_script, check_script, Level, ScriptLibrary,
//!                     run_script, ExecOptions};
//! use gamedb_core::{EffectBuffer, World};
//! use gamedb_content::ValueType;
//! use gamedb_spatial::Vec2;
//!
//! let mut world = World::new();
//! world.define_component("hp", ValueType::Float).unwrap();
//! let imp = world.spawn_at(Vec2::new(0.0, 0.0));
//! world.set_f32(imp, "hp", 40.0).unwrap();
//! let hero = world.spawn_at(Vec2::new(3.0, 0.0));
//! world.set_f32(hero, "hp", 100.0).unwrap();
//!
//! // A designer script in the restricted level: no loops, aggregate
//! // built-ins instead.
//! let script = parse_script("panic", r#"
//!     let rivals = count(10; other.hp > self.hp);
//!     if rivals > 0 { move(0 - 1, 0); }
//! "#).unwrap();
//! assert!(check_script(&script, &world, Level::Restricted).is_empty());
//!
//! let mut lib = ScriptLibrary::new();
//! lib.insert(script);
//! let mut buf = EffectBuffer::new();
//! run_script(&lib, "panic", &world, imp, &mut buf, ExecOptions::default()).unwrap();
//! buf.apply(&mut world).unwrap();
//! assert_eq!(world.pos(imp), Some(Vec2::new(-1.0, 0.0)));
//! ```

pub mod ast;
pub mod engine;
pub mod interp;
pub(crate) mod metrics;
pub mod optimize;
pub mod parser;
pub mod token;
pub mod types;
pub mod vm;

pub use ast::{AggKind, AssignOp, BinOp, BuiltinFn, Expr, Script, Stmt, Subject};
pub use engine::{EngineError, EngineTickStats, ScriptEngine, SCRIPT_COMPONENT};
pub use vm::{compile_program, CompileError, Program, Vm};
pub use interp::{run_script, ExecOptions, RunOutput, RuntimeError, SVal, ScriptLibrary};
pub use optimize::{optimize, OptStats};
pub use parser::{parse, parse_script, ParseError};
pub use token::{lex, LexError, Token, TokenKind};
pub use types::{check_library, check_script, ComponentSchema, Level, Ty, TypeError};
