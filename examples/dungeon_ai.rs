//! Dungeon AI: annotated navigation meshes driving character behaviour.
//!
//! A patrol guard walks the dungeon; when outnumbered (a designer script
//! decides, using aggregates), it flees to the best hiding spot the
//! designers annotated, routing around the lava hall with an
//! annotation-aware cost profile.
//!
//! ```text
//! cargo run --example dungeon_ai
//! ```

use gamedb::content::ValueType;
use gamedb::core::World;
use gamedb::script::{Level, ScriptEngine};
use gamedb::spatial::{Annotation, CostProfile, NavMesh, Vec2};

/// 24x16 dungeon: a wall with two doors, a lava pool, two alcoves.
fn build_dungeon() -> NavMesh {
    let (w, h) = (24usize, 16usize);
    NavMesh::from_tile_grid(
        w,
        h,
        1.0,
        |x, y| {
            if x == 0 || y == 0 || x == w - 1 || y == h - 1 {
                return false;
            }
            // vertical wall at x=12 with doors at y=3 and y=12
            !(x == 12 && y != 3 && y != 12)
        },
        |x, y| {
            let mut a = Annotation::neutral();
            if (14..20).contains(&x) && (6..10).contains(&y) {
                a.danger = 1.0; // lava pool
            }
            if (x, y) == (2, 13) || (x, y) == (21, 2) {
                a.cover = 0.9;
                a.tags.push("alcove".into());
            }
            if x == 12 {
                a.defensibility = 0.8; // doorways
            }
            a
        },
    )
}

const GUARD_BRAIN: &str = r#"
    let intruders = count(8; other.kind == "raider");
    if intruders >= 2 {
        self.state = "flee";
        emit "guard_overwhelmed";
    } else {
        if intruders == 1 {
            self.state = "fight";
        } else {
            self.state = "patrol";
        }
    }
"#;

fn main() {
    let mesh = build_dungeon();
    println!(
        "dungeon: {} walkable polygons, {} component(s), {} alcoves, {} chokepoints",
        mesh.len(),
        mesh.connected_components(),
        mesh.tagged("alcove").len(),
        mesh.defensible_positions(0.5).len()
    );

    // World: one guard, raiders trickling in near the east door.
    let mut world = World::new();
    world.define_component("kind", ValueType::Str).unwrap();
    world.define_component("state", ValueType::Str).unwrap();
    let guard = world.spawn_at(Vec2::new(6.5, 8.5));
    world
        .set(guard, "kind", gamedb::content::Value::Str("guard".into()))
        .unwrap();
    world
        .set(guard, "state", gamedb::content::Value::Str("patrol".into()))
        .unwrap();

    let mut brains = ScriptEngine::new(Level::Restricted);
    brains.ensure_binding_component(&mut world);
    brains.load("guard_brain", GUARD_BRAIN, &world).unwrap();
    brains.bind(&mut world, guard, "guard_brain").unwrap();

    // Step toward a waypoint without walking into a wall: if the raw step
    // leaves the mesh, snap to the waypoint itself (which is on-mesh).
    let step_on_mesh = |mesh: &NavMesh, pos: Vec2, next: Vec2, speed: f32| -> Vec2 {
        let step = (next - pos).normalized() * speed;
        let cand = pos + step;
        if mesh.locate(cand).is_some() {
            cand
        } else {
            next
        }
    };

    // Patrol waypoints across both rooms.
    let patrol = [
        Vec2::new(6.5, 8.5),
        Vec2::new(6.5, 3.5),
        Vec2::new(16.5, 3.5),
        Vec2::new(16.5, 12.5),
        Vec2::new(6.5, 12.5),
    ];
    let mut leg = 0usize;
    let mut raiders = Vec::new();

    for tick in 1..=12 {
        // raiders spawn on ticks 4 and 7
        if tick == 4 || tick == 7 {
            let p = world.pos(guard).unwrap() + Vec2::new(3.0, 1.0);
            let r = world.spawn_at(p);
            world
                .set(r, "kind", gamedb::content::Value::Str("raider".into()))
                .unwrap();
            raiders.push(r);
            println!("tick {tick:>2}: a raider appears at {p}");
        }

        // think: one scripted tick runs every bound brain
        let thought = brains.tick(&mut world).unwrap();
        for (_, ev) in &thought.events {
            println!("tick {tick:>2}: event {ev:?}");
        }

        // act on the decided state
        let state = world
            .get(guard, "state")
            .and_then(|v| v.as_str().map(str::to_string))
            .unwrap_or_default();
        let pos = world.pos(guard).unwrap();
        match state.as_str() {
            "patrol" => {
                let target = patrol[leg % patrol.len()];
                if pos.dist(target) < 0.8 {
                    leg += 1;
                }
                let path = mesh
                    .find_path(pos, target, &CostProfile::shortest())
                    .expect("patrol route exists");
                let next = path.waypoints.get(1).copied().unwrap_or(target);
                world
                    .set_pos(guard, step_on_mesh(&mesh, pos, next, 1.2))
                    .unwrap();
                println!("tick {tick:>2}: patrolling toward {target} (at {pos})");
            }
            "fight" => {
                println!("tick {tick:>2}: guard stands and fights at {pos}");
            }
            "flee" => {
                let spot = mesh
                    .best_hiding_spot(pos, 30.0)
                    .expect("designers annotated hiding spots");
                let target = mesh.polygon(spot).centroid();
                // cautious profile: do not flee through lava
                let path = mesh
                    .find_path(pos, target, &CostProfile::cautious())
                    .expect("hiding spot reachable");
                let lava_crossed = path
                    .polys
                    .iter()
                    .filter(|&&p| mesh.annotation(p).danger > 0.5)
                    .count();
                println!(
                    "tick {tick:>2}: fleeing to hiding spot {target} — {} waypoints, \
                     {} lava polygons crossed (cover there: {})",
                    path.waypoints.len(),
                    lava_crossed,
                    mesh.annotation(spot).cover
                );
                assert_eq!(lava_crossed, 0, "cautious profile avoids lava");
                let next = path.waypoints.get(1).copied().unwrap_or(target);
                world
                    .set_pos(guard, step_on_mesh(&mesh, pos, next, 2.0))
                    .unwrap();
            }
            other => println!("tick {tick:>2}: unknown state {other:?}"),
        }
    }
    println!(
        "\nfinal: guard at {}, {} raiders in the dungeon",
        world.pos(guard).unwrap(),
        raiders.len()
    );
}
