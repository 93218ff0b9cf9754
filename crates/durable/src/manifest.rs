//! The state-directory manifest.
//!
//! One small `key=value` text file at the root of a state directory
//! recording the service shape the journals were written under: shard
//! count, deployment model (the service's own
//! [`ModelSpec`], stored as is), index mode. `slackvm recover` and
//! `slackvm fsck` build deployment models from it without any
//! service configuration on the command line, and a restarting service
//! refuses a directory whose manifest disagrees with its own
//! configuration — silently replaying a 4-shard journal into 2 shards
//! would scatter VMs.
//!
//! Plain text, not framed binary: the manifest is written once per
//! directory lifetime, and being able to `cat` it is worth more than
//! another CRC.

use std::fs;
use std::io::Write;
use std::path::Path;

use slackvm_sim::ModelSpec;

use crate::error::DurableError;

/// Manifest file name within a state directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

const HEADER: &str = "slackvm-durable-manifest";

/// The service shape a state directory was written under.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Number of shards (and `shard-N/` subdirectories).
    pub shards: u32,
    /// Candidate-assembly mode name (`"incremental"` / `"naive"`).
    pub index: String,
    /// Per-shard deployment model.
    pub model: ModelSpec,
}

impl Manifest {
    /// Renders the text form.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{HEADER}\nversion=1\nshards={}\nindex={}\n",
            self.shards, self.index
        );
        match &self.model {
            ModelSpec::Shared {
                topology,
                mem_mib,
                policy,
                fleet_cap,
            } => {
                out.push_str(&format!(
                    "model=shared\ntopology={topology}\nmem_mib={mem_mib}\npolicy={policy}\n"
                ));
                if let Some(cap) = fleet_cap {
                    out.push_str(&format!("fleet_cap={cap}\n"));
                }
            }
            ModelSpec::Dedicated { topology, mem_mib } => {
                out.push_str(&format!(
                    "model=dedicated\ntopology={topology}\nmem_mib={mem_mib}\n"
                ));
            }
        }
        out
    }

    /// Parses the text form.
    pub fn parse(text: &str) -> Result<Manifest, DurableError> {
        let err = |msg: String| DurableError::Manifest(msg);
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(err(format!("missing `{HEADER}` header line")));
        }
        let get = |key: &str| -> Option<String> {
            text.lines()
                .filter_map(|l| l.split_once('='))
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        };
        let version = get("version").ok_or_else(|| err("missing version".into()))?;
        if version != "1" {
            return Err(err(format!("unsupported version {version}")));
        }
        let parse_u32 = |key: &str, v: String| {
            v.parse::<u32>()
                .map_err(|_| err(format!("{key}={v} is not a number")))
        };
        let parse_u64 = |key: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| err(format!("{key}={v} is not a number")))
        };
        let shards = parse_u32(
            "shards",
            get("shards").ok_or_else(|| err("missing shards".into()))?,
        )?;
        if shards == 0 {
            return Err(err("shards must be >= 1".into()));
        }
        let index = get("index").ok_or_else(|| err("missing index".into()))?;
        let topology = get("topology").ok_or_else(|| err("missing topology".into()))?;
        let mem_mib = parse_u64(
            "mem_mib",
            get("mem_mib").ok_or_else(|| err("missing mem_mib".into()))?,
        )?;
        let model = match get("model").as_deref() {
            Some("shared") => ModelSpec::Shared {
                topology,
                mem_mib,
                policy: get("policy").ok_or_else(|| err("missing policy".into()))?,
                fleet_cap: match get("fleet_cap") {
                    Some(v) => Some(parse_u32("fleet_cap", v)?),
                    None => None,
                },
            },
            Some("dedicated") => ModelSpec::Dedicated { topology, mem_mib },
            Some(other) => return Err(err(format!("unknown model `{other}`"))),
            None => return Err(err("missing model".into())),
        };
        Ok(Manifest {
            shards,
            index,
            model,
        })
    }

    /// Loads `<dir>/MANIFEST`.
    pub fn load(dir: &Path) -> Result<Manifest, DurableError> {
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path)
            .map_err(|e| DurableError::Manifest(format!("cannot read {}: {e}", path.display())))?;
        Manifest::parse(&text)
    }

    /// Writes `<dir>/MANIFEST` atomically (tmp + rename + fsync).
    pub fn store(&self, dir: &Path) -> Result<(), DurableError> {
        let path = dir.join(MANIFEST_FILE);
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(self.to_text().as_bytes())?;
            f.sync_data()?;
            drop(f);
            fs::rename(&tmp, &path)?;
            fs::File::open(dir)?.sync_all()?;
            Ok(())
        };
        write().map_err(DurableError::io(path.display().to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Manifest {
        Manifest {
            shards: 4,
            index: "incremental".into(),
            model: ModelSpec::Shared {
                topology: "cores=32".into(),
                mem_mib: 131072,
                policy: "progress+bestfit".into(),
                fleet_cap: Some(64),
            },
        }
    }

    fn dedicated() -> Manifest {
        Manifest {
            shards: 1,
            index: "naive".into(),
            model: ModelSpec::Dedicated {
                topology: "cores=8,smt=2".into(),
                mem_mib: 65536,
            },
        }
    }

    #[test]
    fn text_roundtrips_both_models() {
        for m in [shared(), dedicated()] {
            assert_eq!(Manifest::parse(&m.to_text()).unwrap(), m);
        }
    }

    /// The on-disk format is frozen at version 1: these are the bytes
    /// the format has always produced (topology values contain '='),
    /// so a directory written by any earlier build still loads.
    #[test]
    fn text_form_is_the_version_1_golden() {
        assert_eq!(
            shared().to_text(),
            "slackvm-durable-manifest\nversion=1\nshards=4\nindex=incremental\n\
             model=shared\ntopology=cores=32\nmem_mib=131072\n\
             policy=progress+bestfit\nfleet_cap=64\n"
        );
        assert_eq!(
            dedicated().to_text(),
            "slackvm-durable-manifest\nversion=1\nshards=1\nindex=naive\n\
             model=dedicated\ntopology=cores=8,smt=2\nmem_mib=65536\n"
        );
    }

    #[test]
    fn parse_rejects_malformed_manifests() {
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("slackvm-durable-manifest\nversion=2\n").is_err());
        let no_model = "slackvm-durable-manifest\nversion=1\nshards=1\nindex=incremental\ntopology=cores=4\nmem_mib=1024\n";
        assert!(Manifest::parse(no_model).is_err());
        let zero_shards = shared().to_text().replace("shards=4", "shards=0");
        assert!(Manifest::parse(&zero_shards).is_err());
    }

    #[test]
    fn store_load_roundtrips() {
        let dir = std::env::temp_dir().join(format!("slackvm-manifest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let m = shared();
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        fs::remove_dir_all(&dir).unwrap();
    }
}
