//! Declarative machine models.
//!
//! The paper loads descriptive machine data (grid/machine/partition/node/
//! processor resources with attributes) into PerfTrack before any study;
//! for §4.2 the UV and BG/L descriptions had to be added first. These
//! models reproduce that data for the four platforms the paper uses, plus
//! a generic model for arbitrary hosts. Node counts are capped at emit
//! time — BG/L's 16k nodes would be pure bulk — with the machine-level
//! attributes still recording the true totals.

use perftrack_ptdf::{AttrType, PtdfStatement};

/// A machine description sufficient to emit its resource hierarchy.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Grid (top-level) resource name, e.g. `MCRGrid`.
    pub grid: String,
    /// Machine name, e.g. `MCR`.
    pub name: String,
    pub os_name: String,
    pub os_version: String,
    pub vendor: String,
    pub processor_type: String,
    pub clock_mhz: u32,
    pub interconnect: String,
    /// Partitions: `(name, node count, processors per node)`.
    pub partitions: Vec<(String, usize, usize)>,
    /// Memory per node in GB.
    pub memory_gb: u32,
}

impl MachineModel {
    /// MCR: the paper's Linux cluster.
    pub fn mcr() -> Self {
        MachineModel {
            grid: "MCRGrid".into(),
            name: "MCR".into(),
            os_name: "Linux".into(),
            os_version: "CHAOS 2.0".into(),
            vendor: "Intel".into(),
            processor_type: "Xeon".into(),
            clock_mhz: 2400,
            interconnect: "Quadrics Elan3".into(),
            partitions: vec![("batch".into(), 1152, 2), ("debug".into(), 32, 2)],
            memory_gb: 4,
        }
    }

    /// Frost: the paper's AIX cluster (IBM Power3).
    pub fn frost() -> Self {
        MachineModel {
            grid: "SingleMachineFrost".into(),
            name: "Frost".into(),
            os_name: "AIX".into(),
            os_version: "5.1".into(),
            vendor: "IBM".into(),
            processor_type: "Power3".into(),
            clock_mhz: 375,
            interconnect: "SP Switch".into(),
            partitions: vec![("batch".into(), 68, 16), ("debug".into(), 4, 16)],
            memory_gb: 16,
        }
    }

    /// UV: ASC Purple early-delivery system — 128 8-way Power4+ nodes at
    /// 1.5 GHz (§4.2).
    pub fn uv() -> Self {
        MachineModel {
            grid: "PurpleGrid".into(),
            name: "UV".into(),
            os_name: "AIX".into(),
            os_version: "5.2".into(),
            vendor: "IBM".into(),
            processor_type: "Power4+".into(),
            clock_mhz: 1500,
            interconnect: "Federation".into(),
            partitions: vec![("batch".into(), 128, 8)],
            memory_gb: 32,
        }
    }

    /// BG/L in its early installation phase: one partition of 16k
    /// PowerPC 440 nodes (§4.2).
    pub fn bgl() -> Self {
        MachineModel {
            grid: "BGLGrid".into(),
            name: "BGL".into(),
            os_name: "CNK".into(),
            os_version: "1.0".into(),
            vendor: "IBM".into(),
            processor_type: "PowerPC 440".into(),
            clock_mhz: 700,
            interconnect: "3D Torus".into(),
            partitions: vec![("partition0".into(), 16384, 2)],
            memory_gb: 1,
        }
    }

    /// A generic single-partition model for an arbitrary host (used by
    /// the capture scripts when no model matches).
    pub fn generic(name: &str, os_name: &str, nodes: usize, procs: usize) -> Self {
        MachineModel {
            grid: format!("{name}Grid"),
            name: name.into(),
            os_name: os_name.into(),
            os_version: "unknown".into(),
            vendor: "unknown".into(),
            processor_type: "unknown".into(),
            clock_mhz: 0,
            interconnect: "unknown".into(),
            partitions: vec![("batch".into(), nodes, procs)],
            memory_gb: 0,
        }
    }

    /// Full resource name of the machine.
    pub fn machine_resource(&self) -> String {
        format!("/{}/{}", self.grid, self.name)
    }

    /// Full resource name of node `n` of partition `partition`.
    pub fn node_resource(&self, partition: &str, n: usize) -> String {
        format!(
            "/{}/{}/{}/{}{n}",
            self.grid,
            self.name,
            partition,
            self.name.to_lowercase()
        )
    }

    /// Full resource name of processor `p` on a node.
    pub fn processor_resource(&self, partition: &str, n: usize, p: usize) -> String {
        format!("{}/p{p}", self.node_resource(partition, n))
    }

    /// Emit the PTdf statements describing this machine, with at most
    /// `max_nodes` nodes per partition materialized as resources.
    pub fn to_ptdf(&self, max_nodes: usize) -> Vec<PtdfStatement> {
        let mut out = Vec::new();
        let grid = format!("/{}", self.grid);
        out.push(PtdfStatement::Resource {
            name: grid,
            type_path: "grid".into(),
            execution: None,
        });
        let machine = self.machine_resource();
        out.push(PtdfStatement::Resource {
            name: machine.clone(),
            type_path: "grid/machine".into(),
            execution: None,
        });
        let attr = |resource: &str, name: &str, value: String| PtdfStatement::ResourceAttribute {
            resource: resource.to_string(),
            attribute: name.to_string(),
            value,
            attr_type: AttrType::String,
        };
        out.push(attr(&machine, "operating system", self.os_name.clone()));
        out.push(attr(&machine, "os version", self.os_version.clone()));
        out.push(attr(&machine, "interconnect", self.interconnect.clone()));
        out.push(attr(
            &machine,
            "total nodes",
            self.partitions
                .iter()
                .map(|p| p.1)
                .sum::<usize>()
                .to_string(),
        ));
        for (pname, nodes, procs) in &self.partitions {
            let part = format!("{machine}/{pname}");
            out.push(PtdfStatement::Resource {
                name: part.clone(),
                type_path: "grid/machine/partition".into(),
                execution: None,
            });
            out.push(attr(&part, "node count", nodes.to_string()));
            for n in 0..(*nodes).min(max_nodes) {
                let node = self.node_resource(pname, n);
                out.push(PtdfStatement::Resource {
                    name: node.clone(),
                    type_path: "grid/machine/partition/node".into(),
                    execution: None,
                });
                out.push(attr(&node, "memory GB", self.memory_gb.to_string()));
                for p in 0..*procs {
                    let proc = self.processor_resource(pname, n, p);
                    out.push(PtdfStatement::Resource {
                        name: proc.clone(),
                        type_path: "grid/machine/partition/node/processor".into(),
                        execution: None,
                    });
                    out.push(attr(&proc, "vendor", self.vendor.clone()));
                    out.push(attr(&proc, "processor type", self.processor_type.clone()));
                    out.push(attr(&proc, "clock MHz", self.clock_mhz.to_string()));
                }
            }
        }
        out
    }

    /// The model matching a machine tag used by the workload presets.
    pub fn by_tag(tag: &str) -> Option<MachineModel> {
        match tag {
            "MCR" => Some(Self::mcr()),
            "Frost" => Some(Self::frost()),
            "UV" => Some(Self::uv()),
            "BGL" => Some(Self::bgl()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_have_paper_properties() {
        let uv = MachineModel::uv();
        assert_eq!(uv.partitions[0].1, 128);
        assert_eq!(uv.partitions[0].2, 8);
        assert_eq!(uv.clock_mhz, 1500);
        assert_eq!(uv.processor_type, "Power4+");
        let bgl = MachineModel::bgl();
        assert_eq!(bgl.partitions[0].1, 16384);
        assert_eq!(bgl.processor_type, "PowerPC 440");
        assert_eq!(MachineModel::mcr().os_name, "Linux");
        assert_eq!(MachineModel::frost().os_name, "AIX");
    }

    #[test]
    fn ptdf_emission_caps_nodes_but_keeps_totals() {
        let bgl = MachineModel::bgl();
        let stmts = bgl.to_ptdf(4);
        let nodes = stmts
            .iter()
            .filter(|s| {
                matches!(s, PtdfStatement::Resource { type_path, .. }
                    if type_path == "grid/machine/partition/node")
            })
            .count();
        assert_eq!(nodes, 4);
        assert!(stmts.iter().any(|s| matches!(
            s,
            PtdfStatement::ResourceAttribute { attribute, value, .. }
                if attribute == "total nodes" && value == "16384"
        )));
    }

    #[test]
    fn emitted_ptdf_loads_into_a_store() {
        use perftrack::PTDataStore;
        let store = PTDataStore::in_memory().unwrap();
        for model in [
            MachineModel::mcr(),
            MachineModel::frost(),
            MachineModel::uv(),
            MachineModel::bgl(),
        ] {
            let stats = store.load_statements(&model.to_ptdf(2)).unwrap();
            assert!(stats.resources > 0);
        }
        // Resource names resolve.
        assert!(store
            .resource_id(&MachineModel::uv().processor_resource("batch", 0, 7))
            .is_some());
    }

    #[test]
    fn by_tag_lookup() {
        assert!(MachineModel::by_tag("MCR").is_some());
        assert!(MachineModel::by_tag("BGL").is_some());
        assert!(MachineModel::by_tag("Unknown").is_none());
    }
}
