//! The Figure-1 system illustration.
//!
//! "An illustration of the validation system developed at DESY. Note the
//! clear separation of the inputs: experiment specific software, external
//! dependencies and operating system."
//!
//! Unlike the paper's static figure, this diagram is generated from a live
//! [`SpSystem`], so it always reflects the actual registered experiments,
//! images and clients.

use sp_core::{InputCategory, SpSystem};
use sp_store::StorageArea;

/// Renders the Figure-1 architecture diagram as ASCII art from a live
/// system.
pub fn figure1_diagram(system: &SpSystem) -> String {
    let experiments: Vec<String> = system
        .experiments()
        .map(|e| format!("{} ({} pkgs)", e.name, e.package_count()))
        .collect();
    let externals: Vec<String> = {
        let mut names: Vec<String> = Vec::new();
        for image in system.images() {
            for ext in image.spec.externals.iter() {
                let label = ext.label();
                if !names.contains(&label) {
                    names.push(label);
                }
            }
        }
        names
    };
    let oses: Vec<String> = {
        let mut labels: Vec<String> = Vec::new();
        for image in system.images() {
            let label = format!(
                "{}/{} {}",
                image.spec.os.label(),
                image.spec.arch.label(),
                image.spec.compiler.label()
            );
            if !labels.contains(&label) {
                labels.push(label);
            }
        }
        labels
    };

    let mut out = String::new();
    out.push_str("                 THE THREE SEPARATED INPUTS (figure 1)\n\n");
    let columns = [
        (InputCategory::ExperimentSoftware, &experiments),
        (InputCategory::ExternalDependency, &externals),
        (InputCategory::OperatingSystem, &oses),
    ];
    for (category, items) in &columns {
        out.push_str(&format!("  [{}]\n", category.label()));
        if items.is_empty() {
            out.push_str("      (none registered)\n");
        }
        for item in items.iter() {
            out.push_str(&format!("      - {item}\n"));
        }
        out.push('\n');
    }

    out.push_str("          |                  |                  |\n");
    out.push_str("          +--------+---------+---------+--------+\n");
    out.push_str("                   v                   v\n");
    out.push_str("        +------------------------------------------+\n");
    out.push_str("        |      sp-system  COMMON STORAGE            |\n");
    for area in StorageArea::all() {
        let count = system.storage().name_count(area);
        out.push_str(&format!(
            "        |        {:<10} {:>6} names            |\n",
            area.namespace(),
            count
        ));
    }
    out.push_str("        +------------------------------------------+\n");
    out.push_str("                   ^                   ^\n");
    out.push_str("                   |  (cron-driven)    |\n");

    out.push_str("        clients:\n");
    if system.clients().is_empty() {
        out.push_str("          (none registered)\n");
    }
    for client in system.clients() {
        out.push_str(&format!(
            "          - {} [{}]\n",
            client.name,
            client.kind.label()
        ));
    }
    out.push_str(&format!(
        "\n        {} virtual machine image(s) registered\n",
        system.images().len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_env::{catalog, Version};
    use sp_exec::{ClientKind, CronSchedule};

    #[test]
    fn diagram_reflects_live_system() {
        let system = SpSystem::new();
        system
            .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
            .unwrap();
        system
            .register_experiment(sp_experiments::hermes_experiment())
            .unwrap();
        system
            .register_client(
                "sp-vm-sl6",
                ClientKind::VirtualMachine {
                    image_label: "SL6/64bit gcc4.4".into(),
                },
                CronSchedule::nightly(),
                true,
                true,
            )
            .unwrap();

        let diagram = figure1_diagram(&system);
        assert!(diagram.contains("experiment specific software"));
        assert!(diagram.contains("external software dependencies"));
        assert!(diagram.contains("operating system (incl. compiler)"));
        assert!(diagram.contains("hermes (28 pkgs)"));
        assert!(diagram.contains("root 5.34"));
        assert!(diagram.contains("SL6/64bit gcc4.4"));
        assert!(diagram.contains("COMMON STORAGE"));
        assert!(diagram.contains("sp-vm-sl6"));
    }

    #[test]
    fn empty_system_renders_placeholders() {
        let system = SpSystem::new();
        let diagram = figure1_diagram(&system);
        assert!(diagram.contains("(none registered)"));
    }
}
