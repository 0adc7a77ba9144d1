//! The content-addressed cell cache.
//!
//! Finished cells are stored as one JSON file per cell under a cache
//! directory (`.fabric-cache/` by default, gitignored), named by the cell's
//! [`cache_key`] — the canonical digest of its `(schema, job, spec)`
//! content.  Because the key is derived from the *exact* spec JSON, editing
//! any semantic detail of a cell (a size, a trial count, a seed) changes
//! the key and only that cell re-executes; run-local knobs (thread counts)
//! are deliberately outside the spec so they cannot fragment the cache.
//! The key names the cell, not the code that computes it: a change that
//! moves a cell's result without a schema bump needs a cleared cache.
//!
//! Writes are atomic: the entry is written to `<key>.partial.json` and then
//! renamed to `<key>.json`, so a reader never observes a torn entry and an
//! interrupted run leaves at most ignorable `*.partial.json` droppings
//! (also gitignored).  Each stored entry embeds the cache schema, its own
//! key, and the job kind; [`ResultCache::load`] re-verifies all three and
//! treats any mismatch as a miss — a stale or corrupted entry degrades to
//! recomputation, never to a wrong result or a panic.

use std::fs;
use std::path::PathBuf;

use analysis::digest::content_digest;
use analysis::json::JsonValue;
use ssle_telemetry::metrics::well_known::{FABRIC_CACHE_HITS, FABRIC_CACHE_MISSES};

/// Version tag carried by every cache key and entry.  Bump on any
/// incompatible change to the entry format; readers reject mismatching
/// tags instead of guessing.  The value predates the crate's current
/// shape and is kept verbatim so existing entries stay hits.
const CACHE_SCHEMA: &str = "ssle-fabric/v1";

/// The default cache directory name, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".fabric-cache";

/// The content address of one cell: the canonical digest of the cache
/// schema, the job kind and the cell's exact spec (see
/// [`analysis::digest::content_digest`]).  Everything that affects the
/// result must be in `spec`; anything that does not must stay out of it.
pub fn cache_key(job: &str, spec: &JsonValue) -> String {
    content_digest(
        &JsonValue::object()
            .with("schema", CACHE_SCHEMA)
            .with("job", job)
            .with("spec", spec.clone()),
    )
}

/// A directory of content-addressed cell results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| format!("creating cache dir {}: {e}", dir.display()))?;
        Ok(ResultCache { dir })
    }

    /// The final path of an entry.
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Loads the result stored under `key`, or `None` if the entry is
    /// absent, unreadable, or fails its embedded self-checks (schema tag,
    /// key echo, job kind, parsability) — all of which degrade to a cache
    /// miss.
    pub fn load(&self, key: &str, job: &str) -> Option<JsonValue> {
        let result = self.read(key, job);
        match result {
            Some(_) => FABRIC_CACHE_HITS.incr(),
            None => FABRIC_CACHE_MISSES.incr(),
        }
        result
    }

    fn read(&self, key: &str, job: &str) -> Option<JsonValue> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        let entry = JsonValue::parse(&text).ok()?;
        let tag = |name: &str| entry.get(name).and_then(JsonValue::as_str);
        if tag("schema") != Some(CACHE_SCHEMA) || tag("key") != Some(key) || tag("job") != Some(job)
        {
            return None;
        }
        entry.get("result").cloned()
    }

    /// Stores a result under `key`, atomically (write-to-partial then
    /// rename).
    pub fn store(&self, key: &str, job: &str, result: &JsonValue) -> Result<(), String> {
        let entry = JsonValue::object()
            .with("schema", CACHE_SCHEMA)
            .with("key", key)
            .with("job", job)
            .with("result", result.clone());
        let partial = self.dir.join(format!("{key}.partial.json"));
        let final_path = self.entry_path(key);
        fs::write(&partial, entry.to_json() + "\n")
            .map_err(|e| format!("writing {}: {e}", partial.display()))?;
        fs::rename(&partial, &final_path)
            .map_err(|e| format!("renaming into {}: {e}", final_path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ssle-fabric-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_key_is_spec_and_job_sensitive_but_key_order_free() {
        let spec = JsonValue::object().with("n", 8.0).with("quick", true);
        let key = cache_key("demo", &spec);
        assert_eq!(key.len(), 32);
        let reordered = JsonValue::object().with("quick", true).with("n", 8.0);
        assert_eq!(key, cache_key("demo", &reordered));
        assert_ne!(key, cache_key("other-job", &spec));
        assert_ne!(key, cache_key("demo", &spec.clone().with("trials", 2.0)));
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = scratch_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let result = JsonValue::object().with("steps", 12.0).with("ok", true);
        cache.store("deadbeef", "demo", &result).unwrap();
        assert_eq!(cache.load("deadbeef", "demo"), Some(result));
        // No partial droppings after a clean store.
        let partials = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains("partial")
            })
            .count();
        assert_eq!(partials, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_entries_degrade_to_misses() {
        let dir = scratch_dir("mismatch");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.load("absent", "demo"), None);

        cache.store("k1", "demo", &JsonValue::Bool(true)).unwrap();
        // Wrong job for the same key: miss.
        assert_eq!(cache.load("k1", "other-job"), None);

        // Corrupted entry: miss, not an error.
        fs::write(dir.join("k2.json"), "{ not json").unwrap();
        assert_eq!(cache.load("k2", "demo"), None);

        // Entry whose embedded key disagrees with its filename (e.g. a
        // renamed file): miss.
        let entry = |schema: &str, key: &str| {
            JsonValue::object()
                .with("schema", schema)
                .with("key", key)
                .with("job", "demo")
                .with("result", JsonValue::Bool(true))
                .to_json()
        };
        fs::write(dir.join("k3.json"), entry(CACHE_SCHEMA, "something-else")).unwrap();
        assert_eq!(cache.load("k3", "demo"), None);

        // A truncated entry (a store cut short outside the atomic rename):
        // miss.
        let whole = entry(CACHE_SCHEMA, "k4");
        fs::write(dir.join("k4.json"), &whole[..whole.len() / 2]).unwrap();
        assert_eq!(cache.load("k4", "demo"), None);

        // An entry under a foreign schema tag: miss.
        fs::write(dir.join("k5.json"), entry("ssle-fabric/v0", "k5")).unwrap();
        assert_eq!(cache.load("k5", "demo"), None);

        // The well-formed entry itself still hits.
        fs::write(dir.join("k6.json"), entry(CACHE_SCHEMA, "k6")).unwrap();
        assert_eq!(cache.load("k6", "demo"), Some(JsonValue::Bool(true)));
        let _ = fs::remove_dir_all(&dir);
    }
}
