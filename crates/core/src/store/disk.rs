//! On-disk codec of a [`DataStore`]: a versioned `index.json` (schema
//! tag + invocation index) plus a `store.jsonl` data file (one entry
//! per line).
//!
//! Both files are rewritten whole on [`DataStore::save`], sorted by
//! key, so identical contents serialise byte-identically. Loading
//! verifies the schema tag first and rejects anything else with a
//! typed error — a future v2 layout will not be silently misread.
//!
//! Numbers are stored as the hex spelling of their IEEE-754 bit
//! pattern: JSON has no NaN/∞ and decimal round-trips are easy to get
//! subtly wrong, while the bit pattern is exactly what the
//! [`ProvenanceKey`] hashed.

use super::{DataStore, InvocationKey, ProvenanceKey, STORE_SCHEMA};
use crate::error::MoteurError;
use crate::obs::json::{array, JsonObject, JsonValue};
use crate::value::DataValue;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub(super) const INDEX_FILE: &str = "index.json";
pub(super) const DATA_FILE: &str = "store.jsonl";
pub(super) const LOCK_FILE: &str = ".moteur-store.lock";

/// How long a save or load waits for a concurrent writer to finish
/// before failing with a stale-lock diagnostic.
const LOCK_TIMEOUT: Duration = Duration::from_secs(5);

/// Advisory cross-process lock on a cache directory, held for the
/// duration of a save or load so concurrent writers serialise instead
/// of interleaving the `index.json` / `store.jsonl` pair. Std-only:
/// the lock is a `create_new` file (atomic on every platform) removed
/// on drop; a crashed holder leaves a stale file the error message
/// names.
#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    fn acquire(dir: &Path, timeout: Duration) -> Result<LockGuard, MoteurError> {
        let path = dir.join(LOCK_FILE);
        let deadline = Instant::now() + timeout;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(LockGuard { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Instant::now() >= deadline {
                        return Err(MoteurError::new(format!(
                            "data store at {} is locked by another writer \
                             (if no other process is running, remove the stale lock {})",
                            dir.display(),
                            path.display()
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Write `contents` to `path` atomically: a same-directory temp file
/// renamed into place, so a reader (or a crash) never observes a
/// half-written file.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn encode_value(value: &DataValue) -> Option<String> {
    Some(match value {
        DataValue::Str(s) => JsonObject::new().str("t", "str").str("v", s).finish(),
        DataValue::Num(n) => JsonObject::new()
            .str("t", "num")
            .str("bits", &format!("{:016x}", n.to_bits()))
            .finish(),
        DataValue::File { gfn, bytes } => JsonObject::new()
            .str("t", "file")
            .str("gfn", gfn)
            .uint("bytes", *bytes)
            .finish(),
        DataValue::List(items) => {
            let encoded: Option<Vec<String>> = items.iter().map(encode_value).collect();
            JsonObject::new()
                .str("t", "list")
                .raw("items", &array(encoded?))
                .finish()
        }
        DataValue::Opaque(_) => return None,
    })
}

fn bad(what: &str) -> MoteurError {
    MoteurError::new(format!("corrupt data store: {what}"))
}

fn decode_value(v: &JsonValue) -> Result<DataValue, MoteurError> {
    let tag = v
        .get("t")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("value without a `t` tag"))?;
    match tag {
        "str" => Ok(DataValue::Str(
            v.get("v")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("str value without `v`"))?
                .to_string(),
        )),
        "num" => {
            let bits = v
                .get("bits")
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| bad("num value without hex `bits`"))?;
            Ok(DataValue::Num(f64::from_bits(bits)))
        }
        "file" => Ok(DataValue::File {
            gfn: v
                .get("gfn")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("file value without `gfn`"))?
                .to_string(),
            bytes: v
                .get("bytes")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| bad("file value without `bytes`"))? as u64,
        }),
        "list" => {
            let Some(JsonValue::Array(items)) = v.get("items") else {
                return Err(bad("list value without `items`"));
            };
            Ok(DataValue::List(
                items.iter().map(decode_value).collect::<Result<_, _>>()?,
            ))
        }
        other => Err(bad(&format!("unknown value tag `{other}`"))),
    }
}

/// Serialise `store` into `dir` (both files rewritten whole, under the
/// directory's advisory lock, each renamed into place atomically).
pub(super) fn save(store: &DataStore, dir: &Path) -> Result<(), MoteurError> {
    let _lock = LockGuard::acquire(dir, LOCK_TIMEOUT)?;
    let mut invocations: Vec<_> = store.iter_invocations().collect();
    invocations.sort_by_key(|(k, _, _)| *k);
    let rows = invocations.into_iter().map(|(key, service, outputs)| {
        let outs = outputs.iter().map(|(port, pk)| {
            JsonObject::new()
                .str("port", port)
                .str("pk", &pk.to_hex())
                .finish()
        });
        JsonObject::new()
            .str("key", &key.to_hex())
            .str("service", service)
            .raw("outputs", &array(outs))
            .finish()
    });
    let index = JsonObject::new()
        .str("schema", STORE_SCHEMA)
        .raw("invocations", &array(rows))
        .finish();
    write_atomic(&dir.join(INDEX_FILE), &(index + "\n"))?;

    let mut entries: Vec<_> = store.iter_data().collect();
    entries.sort_by_key(|(k, _, _, _)| *k);
    let mut jsonl = String::new();
    for (key, value, footprint, _) in entries {
        let encoded = encode_value(value)
            .ok_or_else(|| MoteurError::new("opaque value in the data store"))?;
        jsonl.push_str(
            &JsonObject::new()
                .str("pk", &key.to_hex())
                .uint("footprint", footprint)
                .raw("value", &encoded)
                .finish(),
        );
        jsonl.push('\n');
    }
    write_atomic(&dir.join(DATA_FILE), &jsonl)?;
    Ok(())
}

/// Load `dir` into an empty `store`, verifying the schema tag. Takes
/// the same advisory lock as [`save`] so the `index.json` /
/// `store.jsonl` pair is read as one coherent snapshot.
pub(super) fn load(store: &mut DataStore, dir: &Path) -> Result<(), MoteurError> {
    let _lock = LockGuard::acquire(dir, LOCK_TIMEOUT)?;
    let index_text = std::fs::read_to_string(dir.join(INDEX_FILE))?;
    let index = JsonValue::parse(&index_text).map_err(|e| bad(&format!("index.json: {e}")))?;
    match index.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == STORE_SCHEMA => {}
        Some(other) => {
            return Err(MoteurError::new(format!(
                "data store at {} has schema `{other}`, this build reads `{STORE_SCHEMA}` \
                 (clear the cache directory to rebuild it)",
                dir.display()
            )))
        }
        None => return Err(bad("index.json without a schema tag")),
    }

    let data_path = dir.join(DATA_FILE);
    if data_path.exists() {
        let text = std::fs::read_to_string(&data_path)?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let row = JsonValue::parse(line).map_err(|e| bad(&format!("store.jsonl: {e}")))?;
            let key = row
                .get("pk")
                .and_then(JsonValue::as_str)
                .and_then(ProvenanceKey::from_hex)
                .ok_or_else(|| bad("entry without a valid `pk`"))?;
            let footprint =
                row.get("footprint")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| bad("entry without a `footprint`"))? as u64;
            let value = decode_value(
                row.get("value")
                    .ok_or_else(|| bad("entry without a `value`"))?,
            )?;
            store.load_data(key, value, footprint);
        }
    }

    let rows = match index.get("invocations") {
        Some(JsonValue::Array(rows)) => rows.as_slice(),
        _ => return Err(bad("index.json without an `invocations` array")),
    };
    for row in rows {
        let key = row
            .get("key")
            .and_then(JsonValue::as_str)
            .and_then(InvocationKey::from_hex)
            .ok_or_else(|| bad("invocation without a valid `key`"))?;
        let service = row
            .get("service")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("invocation without a `service`"))?
            .to_string();
        let Some(JsonValue::Array(outs)) = row.get("outputs") else {
            return Err(bad("invocation without an `outputs` array"));
        };
        let mut outputs = Vec::with_capacity(outs.len());
        for o in outs {
            let port = o
                .get("port")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("output without a `port`"))?
                .to_string();
            let pk = o
                .get("pk")
                .and_then(JsonValue::as_str)
                .and_then(ProvenanceKey::from_hex)
                .ok_or_else(|| bad("output without a valid `pk`"))?;
            outputs.push((port, pk));
        }
        store.record_invocation(key, service, outputs);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{invocation_key, StoreConfig};
    use crate::token::History;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moteur-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persistence_round_trips_values_and_invocations() {
        let dir = temp_dir("roundtrip");
        let mut store = DataStore::open(&dir, StoreConfig::default()).unwrap();
        let h = History::derived("proc", vec![History::source("s", 0)]);
        let list = DataValue::List(vec![
            DataValue::from("x"),
            DataValue::Num(f64::NAN),
            DataValue::File {
                gfn: "gfn://f".into(),
                bytes: 42,
            },
        ]);
        let pk = store.insert(&list, &h).unwrap();
        let ik = invocation_key("svc", 1, &[ProvenanceKey(9)]);
        store.record_invocation(ik, "svc", vec![("out".into(), pk)]);
        store.save().unwrap();

        let mut reloaded = DataStore::open(&dir, StoreConfig::default()).unwrap();
        let outs = reloaded.lookup(ik).expect("warm restart hits");
        let items = outs[0].1.as_list().unwrap();
        assert_eq!(items[0].as_str(), Some("x"));
        assert!(items[1].as_num().unwrap().is_nan(), "NaN bit pattern kept");
        assert_eq!(items[2].as_file(), Some(("gfn://f", 42)));
        assert_eq!(reloaded.stats().bytes, store.stats().bytes);

        // Saving identical contents twice is byte-stable.
        reloaded.save().unwrap();
        let a = std::fs::read(dir.join(DATA_FILE)).unwrap();
        store.save().unwrap();
        let b = std::fs::read(dir.join(DATA_FILE)).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_cache_dir_do_not_corrupt_it() {
        let dir = temp_dir("concurrent");
        std::fs::create_dir_all(&dir).unwrap();
        let mut handles = Vec::new();
        for writer in 0..2u32 {
            let dir = dir.clone();
            handles.push(std::thread::spawn(move || {
                // Each handle holds its own view of the shared cache
                // dir and saves it repeatedly, racing the other.
                let mut store = DataStore::open(&dir, StoreConfig::default()).unwrap();
                for round in 0..20u32 {
                    let h =
                        History::derived(format!("w{writer}"), vec![History::source("s", round)]);
                    let pk = store
                        .insert(&DataValue::from(format!("v{writer}-{round}")), &h)
                        .unwrap();
                    let ik = invocation_key("svc", u64::from(writer * 1000 + round), &[pk]);
                    store.record_invocation(ik, "svc", vec![("out".into(), pk)]);
                    store.save().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Whichever writer saved last, the on-disk pair must parse
        // cleanly and hold that writer's full 20 invocations (plus any
        // it loaded from the other writer when it opened the dir).
        let reloaded = DataStore::open(&dir, StoreConfig::default()).unwrap();
        let n = reloaded.stats().invocations;
        assert!((20..=40).contains(&n), "torn write detected: {n} rows");
        assert!(
            !dir.join(LOCK_FILE).exists(),
            "lock released after the last save"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_held_lock_times_out_with_a_stale_lock_diagnostic() {
        let dir = temp_dir("locked");
        std::fs::create_dir_all(&dir).unwrap();
        let _held = LockGuard::acquire(&dir, Duration::ZERO).unwrap();
        let err = LockGuard::acquire(&dir, Duration::ZERO).unwrap_err();
        assert!(
            err.to_string().contains("locked by another writer"),
            "{err}"
        );
        assert!(err.to_string().contains(LOCK_FILE), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_schema_versions_are_rejected() {
        let dir = temp_dir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(INDEX_FILE),
            "{\"schema\":\"moteur-store/v999\",\"invocations\":[]}\n",
        )
        .unwrap();
        let err = DataStore::open(&dir, StoreConfig::default()).unwrap_err();
        assert!(err.to_string().contains("moteur-store/v999"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_surface_as_typed_errors() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(INDEX_FILE),
            format!("{{\"schema\":\"{STORE_SCHEMA}\",\"invocations\":[]}}\n"),
        )
        .unwrap();
        std::fs::write(dir.join(DATA_FILE), "not json\n").unwrap();
        assert!(DataStore::open(&dir, StoreConfig::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
