#pragma once
// The trace vocabulary: one line per action the models emit, giving its
// TraceAction enumerator, its TraceCategory and its string. trace.hpp
// generates sim::TraceAction, to_string(TraceAction) and
// category_of(TraceAction) from this list, so an action's category is fixed
// here and nowhere else. The strings are what fingerprints, goldens and
// rendered traces see: renaming one, or moving it to another category,
// moves every log that recorded it.

#define CYD_TRACE_ACTIONS(X)                                                  \
  X(kQueueTruncated, kSim, "queue.truncated")                                 \
  X(kExecBlocked, kSecurity, "exec.blocked")                                  \
  X(kProcessStart, kProcess, "process.start")                                 \
  X(kServiceInstall, kProcess, "service.install")                             \
  X(kServiceStartFailed, kProcess, "service.start-failed")                    \
  X(kTaskSchedule, kProcess, "task.schedule")                                 \
  X(kDriverRejected, kDriver, "driver.rejected")                              \
  X(kDriverLoad, kDriver, "driver.load")                                      \
  X(kRawdiskDenied, kDriver, "rawdisk.denied")                                \
  X(kRawdiskMbrOverwrite, kDriver, "rawdisk.mbr-overwrite")                   \
  X(kRawdiskPartitionOverwrite, kDriver, "rawdisk.partition-overwrite")       \
  X(kHostBootFailed, kProcess, "host.boot-failed")                            \
  X(kHostReboot, kProcess, "host.reboot")                                     \
  X(kUsbPlug, kUsb, "usb.plug")                                               \
  X(kUsbUnplug, kUsb, "usb.unplug")                                           \
  X(kUsbAutorun, kUsb, "usb.autorun")                                         \
  X(kLnkRenderBenign, kUsb, "lnk.render-benign")                              \
  X(kLnkExploitTrigger, kUsb, "lnk.exploit-trigger")                          \
  X(kNetAttach, kNetwork, "net.attach")                                       \
  X(kHttpViaProxy, kNetwork, "http.via-proxy")                                \
  X(kProxyIntercepted, kNetwork, "proxy.intercepted")                         \
  X(kHttpLan, kNetwork, "http.lan")                                           \
  X(kHttpNoRoute, kNetwork, "http.no-route")                                  \
  X(kHttpInternet, kNetwork, "http.internet")                                 \
  X(kWpadBroadcast, kNetwork, "wpad.broadcast")                               \
  X(kWpadAnswered, kNetwork, "wpad.answered")                                 \
  X(kWuMalformedBinary, kSecurity, "wu.malformed-binary")                     \
  X(kWuSignatureRejected, kSecurity, "wu.signature-rejected")                 \
  X(kWuInstall, kNetwork, "wu.install")                                       \
  X(kSmbDenied, kNetwork, "smb.denied")                                       \
  X(kSmbCopy, kNetwork, "smb.copy")                                           \
  X(kSmbPsexec, kNetwork, "smb.psexec")                                       \
  X(kSpoolerRejected, kNetwork, "spooler.rejected")                           \
  X(kSpoolerExploit, kNetwork, "spooler.exploit")                             \
  X(kPatchApplied, kSecurity, "patch.applied")                                \
  X(kAvDetect, kSecurity, "av.detect")                                        \
  X(kPlcBlockWrite, kScada, "plc.block-write")                                \
  X(kPlcLogicSwap, kScada, "plc.logic-swap")                                  \
  X(kSafetyTrip, kScada, "safety.trip")                                       \
  X(kStep7Install, kScada, "step7.install")                                   \
  X(kStep7OpenProject, kScada, "step7.open-project")                          \
  X(kStep7Connect, kScada, "step7.connect")                                   \
  X(kAcPushAll, kCnc, "ac.push-all")                                          \
  X(kAcPushTo, kCnc, "ac.push-to")                                            \
  X(kAcCollect, kCnc, "ac.collect")                                           \
  X(kAcOrderSuicide, kCnc, "ac.order-suicide")                                \
  X(kCncDeploy, kCnc, "cnc.deploy")                                           \
  X(kCncUndeploy, kCnc, "cnc.undeploy")                                       \
  X(kCncGetNews, kCnc, "cnc.get-news")                                        \
  X(kCncAddEntry, kCnc, "cnc.add-entry")                                      \
  X(kCncPushAd, kCnc, "cnc.push-ad")                                          \
  X(kCncPushNews, kCnc, "cnc.push-news")                                      \
  X(kCncPurge, kCnc, "cnc.purge")                                             \
  X(kCncLogwiper, kCnc, "cnc.logwiper")                                       \
  X(kC2Deploy, kCnc, "c2.deploy")                                             \
  X(kC2Checkin, kCnc, "c2.checkin")                                           \
  X(kUsbArmed, kMalware, "usb.armed")                                         \
  X(kUsbDisarmed, kMalware, "usb.disarmed")                                   \
  X(kStuxnetInstallFailed, kMalware, "stuxnet.install-failed")                \
  X(kStuxnetInstall, kMalware, "stuxnet.install")                             \
  X(kStuxnetProjectInfected, kMalware, "stuxnet.project-infected")            \
  X(kStuxnetUsbArmed, kMalware, "stuxnet.usb-armed")                          \
  X(kStuxnetUpdated, kMalware, "stuxnet.updated")                             \
  X(kStuxnetFingerprintMiss, kMalware, "stuxnet.fingerprint-miss")            \
  X(kStuxnetDllReplaced, kMalware, "stuxnet.dll-replaced")                    \
  X(kStuxnetPlcStruck, kMalware, "stuxnet.plc-struck")                        \
  X(kDuquDocOpened, kMalware, "duqu.doc-opened")                              \
  X(kDuquTtfBenign, kMalware, "duqu.ttf-benign")                              \
  X(kDuquInstall, kMalware, "duqu.install")                                   \
  X(kDuquSelfRemoved, kMalware, "duqu.self-removed")                          \
  X(kFlameInstall, kMalware, "flame.install")                                 \
  X(kFlameQaScreenshot, kMalware, "flame.qa-screenshot")                      \
  X(kFlameCollect, kMalware, "flame.collect")                                 \
  X(kFlameBtBeacon, kBluetooth, "flame.bt-beacon")                            \
  X(kFlamePayload, kMalware, "flame.payload")                                 \
  X(kFlameScriptUpdated, kMalware, "flame.script-updated")                    \
  X(kFlameModuleUpdated, kMalware, "flame.module-updated")                    \
  X(kFlameGadget, kMalware, "flame.gadget")                                   \
  X(kFlameFerryRecovered, kMalware, "flame.ferry-recovered")                  \
  X(kFlameFerryLoaded, kMalware, "flame.ferry-loaded")                        \
  X(kFlameEuphoriaArmed, kMalware, "flame.euphoria-armed")                    \
  X(kFlameSuicide, kMalware, "flame.suicide")                                 \
  X(kGaussGodelDetonation, kMalware, "gauss.godel-detonation")                \
  X(kGodelArmed, kMalware, "godel.armed")                                     \
  X(kGaussGodelMismatch, kMalware, "gauss.godel-mismatch")                    \
  X(kGaussInstall, kMalware, "gauss.install")                                 \
  X(kGaussLagrangeArmed, kMalware, "gauss.lagrange-armed")                    \
  X(kGaussCollect, kMalware, "gauss.collect")                                 \
  X(kShamoonInstall, kMalware, "shamoon.install")                             \
  X(kShamoonWiperStart, kMalware, "shamoon.wiper-start")                      \
  X(kShamoonDriverRejected, kMalware, "shamoon.driver-rejected")              \
  X(kShamoonReport, kMalware, "shamoon.report")
