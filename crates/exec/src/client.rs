//! Client machines.
//!
//! "The sp-system is designed and constructed in a such a way that new
//! client machines (as a virtual machine or a normal physical machine like
//! a batch or grid worker node) can easily be added. The only requirement
//! of a new machine is to have access to the common sp-system storage …
//! as well as the ability to run a cron-job on the client." (§3.1)

use crate::cron::CronSchedule;

/// What kind of machine a client is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientKind {
    /// A hosted virtual machine running a named image configuration.
    VirtualMachine {
        /// Label of the image the VM boots.
        image_label: String,
    },
    /// A physical batch node.
    BatchNode,
    /// A grid worker node.
    GridWorker,
}

impl ClientKind {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            ClientKind::VirtualMachine { image_label } => format!("vm[{image_label}]"),
            ClientKind::BatchNode => "batch".to_string(),
            ClientKind::GridWorker => "grid".to_string(),
        }
    }
}

/// Why a client could not join the sp-system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The machine cannot mount the common storage.
    NoStorageAccess,
    /// The machine cannot run cron jobs.
    NoCron,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NoStorageAccess => {
                write!(f, "client has no access to the common sp-system storage")
            }
            ClientError::NoCron => write!(f, "client cannot run a cron job"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A registered sp-system client.
#[derive(Debug, Clone, PartialEq)]
pub struct Client {
    /// Unique client name (`sp-vm-sl6-64`, `bird23.desy.de`).
    pub name: String,
    /// Machine kind.
    pub kind: ClientKind,
    /// The cron schedule driving its regular work.
    pub schedule: CronSchedule,
}

impl Client {
    /// Registers a client, enforcing the paper's two requirements.
    pub fn register(
        name: impl Into<String>,
        kind: ClientKind,
        schedule: CronSchedule,
        has_storage_access: bool,
        can_run_cron: bool,
    ) -> Result<Client, ClientError> {
        if !has_storage_access {
            return Err(ClientError::NoStorageAccess);
        }
        if !can_run_cron {
            return Err(ClientError::NoCron);
        }
        Ok(Client {
            name: name.into(),
            kind,
            schedule,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_requires_storage_and_cron() {
        let schedule = CronSchedule::nightly();
        assert_eq!(
            Client::register("vm1", ClientKind::BatchNode, schedule.clone(), false, true)
                .unwrap_err(),
            ClientError::NoStorageAccess
        );
        assert_eq!(
            Client::register("vm1", ClientKind::BatchNode, schedule.clone(), true, false)
                .unwrap_err(),
            ClientError::NoCron
        );
        assert!(Client::register("vm1", ClientKind::BatchNode, schedule, true, true).is_ok());
    }

    #[test]
    fn any_machine_kind_can_join() {
        let schedule = CronSchedule::nightly();
        for kind in [
            ClientKind::VirtualMachine {
                image_label: "SL6/64bit gcc4.4".into(),
            },
            ClientKind::BatchNode,
            ClientKind::GridWorker,
        ] {
            assert!(
                Client::register("m", kind.clone(), schedule.clone(), true, true).is_ok(),
                "{kind:?} must be able to join"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(
            ClientKind::VirtualMachine {
                image_label: "SL5/32bit gcc4.1".into()
            }
            .label(),
            "vm[SL5/32bit gcc4.1]"
        );
        assert_eq!(ClientKind::GridWorker.label(), "grid");
    }
}
