//! User-generated content: a Second Life-style scripting sandbox.
//!
//! The paper: "Some games like Second Life go further and provide users
//! with a complete scripting language that they can use to create new
//! content. This type of user-generated content can greatly extend the
//! playable lifespan of a popular game." — and the same section explains
//! why studios then "remove support for iteration and recursion": one
//! griefer script that is Ω(n²) in the number of objects takes the region
//! server down for everyone.
//!
//! This example is the server side of that story: players submit scripts
//! for their in-world objects; the server
//!
//!   1. enforces the **restricted language level** at submission time
//!      (loops and recursion rejected with designer-readable errors),
//!   2. enforces a **per-player script quota**,
//!   3. runs everything through the optimizer + compiled path, and
//!   4. hot-reloads a script when its author edits it live.
//!
//! ```text
//! cargo run --example user_content
//! ```

use std::collections::HashMap;

use gamedb::content::ValueType;
use gamedb::core::World;
use gamedb::script::{EngineError, Level, ScriptEngine};
use gamedb::spatial::Vec2;

/// Per-player submission limits (a real grid also meters runtime).
const MAX_SCRIPTS_PER_PLAYER: usize = 2;

/// The region server's UGC gateway: quota + language-level enforcement
/// in front of the script engine.
struct UgcGateway {
    engine: ScriptEngine,
    owner_of: HashMap<String, String>,
}

impl UgcGateway {
    fn new() -> Self {
        UgcGateway {
            // Restricted level: no while, no recursion, no unbounded
            // foreach — aggregates only. The optimizer also runs, so even
            // accepted scripts get constant-folded before they tick.
            engine: ScriptEngine::new(Level::Restricted).with_optimizer(),
            owner_of: HashMap::new(),
        }
    }

    fn submit(
        &mut self,
        player: &str,
        script_name: &str,
        source: &str,
        world: &World,
    ) -> Result<(), String> {
        let owned = self
            .owner_of
            .iter()
            .filter(|(name, owner)| {
                owner.as_str() == player && name.as_str() != script_name
            })
            .count();
        if owned >= MAX_SCRIPTS_PER_PLAYER {
            return Err(format!(
                "{player} is at the {MAX_SCRIPTS_PER_PLAYER}-script quota"
            ));
        }
        match self.engine.load(script_name, source, world) {
            Ok(()) => {
                self.owner_of
                    .insert(script_name.to_string(), player.to_string());
                Ok(())
            }
            Err(EngineError::Check(errors)) => Err(errors
                .iter()
                .map(|e| format!("  rejected: {e}"))
                .collect::<Vec<_>>()
                .join("\n")),
            Err(other) => Err(format!("  rejected: {other}")),
        }
    }
}

fn main() {
    // The public plaza: a shared region with player-owned objects.
    let mut world = World::new();
    for (name, ty) in [
        ("glow", ValueType::Float),
        ("team", ValueType::Str),
        ("hp", ValueType::Float),
    ] {
        world.define_component(name, ty).unwrap();
    }
    let mut gateway = UgcGateway::new();
    gateway.engine.ensure_binding_component(&mut world);

    // Thirty ambient objects so neighborhood scripts have neighbors.
    for i in 0..30 {
        let e = world.spawn_at(Vec2::new((i % 6) as f32 * 3.0, (i / 6) as f32 * 3.0));
        world.set_f32(e, "glow", 1.0).unwrap();
    }

    println!("== player \"ada\" submits a fountain that glows with company ==");
    let fountain = world.spawn_at(Vec2::new(7.0, 7.0));
    world.set_f32(fountain, "glow", 0.0).unwrap();
    let result = gateway.submit(
        "ada",
        "fountain",
        // restricted-legal: neighborhood logic through aggregates
        "let crowd = count(6);\n self.glow = clamp(crowd * 0.5, 0, 5);",
        &world,
    );
    println!("   accepted: {}", result.is_ok());
    gateway.engine.bind(&mut world, fountain, "fountain").unwrap();

    println!("\n== player \"mallory\" submits the region-killer ==");
    let griefer_src = r#"
        foreach within (10000) {
          foreach within (10000) {
            self.glow += 0.000001;
          }
        }"#;
    match gateway.submit("mallory", "sparkle", griefer_src, &world) {
        Ok(()) => unreachable!("the restricted level must reject this"),
        Err(msg) => println!("{msg}"),
    }

    println!("\n== mallory resubmits the declarative version ==");
    let fixed = "self.glow += count(10000) * count(10000) * 0.000001;";
    let result = gateway.submit("mallory", "sparkle", fixed, &world);
    println!("   accepted: {}", result.is_ok());
    let disco = world.spawn_at(Vec2::new(8.0, 8.0));
    gateway.engine.bind(&mut world, disco, "sparkle").unwrap();

    println!("\n== quota: mallory's third script bounces ==");
    gateway
        .submit("mallory", "second", "self.glow += 0.1;", &world)
        .unwrap();
    match gateway.submit("mallory", "third", "self.glow += 0.1;", &world) {
        Ok(()) => unreachable!("quota must hold"),
        Err(msg) => println!("   {msg}"),
    }

    println!("\n== three region ticks ==");
    for tick in 1..=3 {
        let stats = gateway.engine.tick(&mut world).unwrap();
        println!(
            "   tick {tick}: {} scripts ran, fountain glow = {:.1}",
            stats.scripts_run,
            world.get_f32(fountain, "glow").unwrap(),
        );
    }
    assert!(world.get_f32(fountain, "glow").unwrap() > 0.0);

    println!("\n== ada live-edits her fountain (hot reload) ==");
    gateway
        .submit(
            "ada",
            "fountain",
            "self.glow = 99.0;",
            &world,
        )
        .unwrap();
    gateway.engine.tick(&mut world).unwrap();
    println!(
        "   fountain glow after reload: {:.0}",
        world.get_f32(fountain, "glow").unwrap()
    );
    assert_eq!(world.get_f32(fountain, "glow"), Some(99.0));

    println!(
        "\nthe sandbox held: quadratic griefing rejected at the language \
         level,\nquotas enforced, and accepted content ran compiled through \
         the spatial index."
    );
}
