#include "winsys/host_image.hpp"

#include <cstdio>

namespace cyd::winsys {

const char* to_string(HostArchetype a) {
  switch (a) {
    case HostArchetype::kOfficePc: return "office-pc";
    case HostArchetype::kEngineeringStation: return "engineering-station";
  }
  return "?";
}

OsVersion default_os(HostArchetype a) {
  switch (a) {
    case HostArchetype::kOfficePc: return OsVersion::kWin7;
    case HostArchetype::kEngineeringStation: return OsVersion::kWinXp;
  }
  return OsVersion::kWin7;
}

namespace {

/// Writes one stock file at t=0; content derives from the path so every
/// image build produces identical bytes.
void put(FileSystem& fs, const std::string& path) {
  fs.write_file(Path(path), "MZ stock image bytes: " + path, 0);
}

void put_n(FileSystem& fs, const std::string& dir, const char* stem,
           const char* ext, int count) {
  char name[128];
  for (int i = 0; i < count; ++i) {
    std::snprintf(name, sizeof(name), "%s\\%s%03d.%s", dir.c_str(), stem, i,
                  ext);
    put(fs, name);
  }
}

void populate_stock_os(FileSystem& fs, Registry& reg) {
  // Stock OS payload every archetype carries.
  static const char* kCoreDlls[] = {
      "ntdll.dll",    "kernel32.dll", "user32.dll",  "gdi32.dll",
      "advapi32.dll", "shell32.dll",  "ole32.dll",   "rpcrt4.dll",
      "ws2_32.dll",   "wininet.dll",  "crypt32.dll", "netapi32.dll",
      "winspool.drv", "lsasrv.dll",   "services.exe", "svchost.exe",
      "explorer.exe", "winlogon.exe", "csrss.exe",   "smss.exe",
  };
  for (const char* dll : kCoreDlls) {
    put(fs, std::string("c:\\windows\\system32\\") + dll);
  }
  put_n(fs, "c:\\windows\\system32", "winsx", "dll", 64);
  put_n(fs, "c:\\windows\\system32\\drivers", "port", "sys", 16);
  put_n(fs, "c:\\windows\\fonts", "font", "ttf", 12);
  fs.mkdirs(Path("c:\\windows\\temp"));
  fs.mkdirs(Path("c:\\program files"));
  fs.mkdirs(Path("c:\\users\\public"));

  reg.set("hklm\\software\\microsoft\\windows nt\\currentversion",
          "SystemRoot", "c:\\windows");
  reg.set("hklm\\system\\currentcontrolset\\control", "WaitToKillServiceTimeout",
          std::uint32_t{20000});
  static const char* kStockServices[] = {"lanmanserver", "spooler", "eventlog",
                                         "dhcp", "w32time"};
  for (const char* svc : kStockServices) {
    reg.set(std::string("hklm\\system\\currentcontrolset\\services\\") + svc,
            "Start", std::uint32_t{2});
  }
}

void populate_software(HostArchetype a, FileSystem& fs, Registry& reg) {
  switch (a) {
    case HostArchetype::kOfficePc:
      put_n(fs, "c:\\program files\\office12", "mso", "dll", 24);
      put(fs, "c:\\program files\\office12\\winword.exe");
      put(fs, "c:\\program files\\office12\\excel.exe");
      put_n(fs, "c:\\users\\public\\documents", "report", "doc", 20);
      reg.set("hklm\\software\\microsoft\\office\\12.0", "InstallRoot",
              "c:\\program files\\office12");
      break;
    case HostArchetype::kEngineeringStation:
      // Step 7 project station — the machines Stuxnet's .s7p hook targets.
      put_n(fs, "c:\\program files\\siemens\\step7\\s7bin", "s7otbx", "dll",
            16);
      put(fs, "c:\\program files\\siemens\\step7\\s7bin\\s7tgtopx.exe");
      put_n(fs, "c:\\projects\\cascade", "cascade_a", "s7p", 6);
      put_n(fs, "c:\\projects\\archive", "line", "s7p", 10);
      reg.set("hklm\\software\\siemens\\step7", "Version", "5.4");
      break;
  }
}

}  // namespace

void populate_archetype(HostArchetype a, FileSystem& fs, Registry& registry) {
  populate_stock_os(fs, registry);
  populate_software(a, fs, registry);
}

HostImage::Builder::Builder(OsVersion os) : os_(os) {
  fs_.add_volume('c');
  write_windows_skeleton(fs_);
}

std::shared_ptr<const HostImage> HostImage::Builder::build() {
  auto image = std::shared_ptr<HostImage>(new HostImage());
  image->os_ = os_;
  // The builder's FileSystem owns the volume; freeze a copy so the image is
  // self-contained and immutable from here on.
  image->volume_ = std::make_shared<const Volume>(*fs_.volume('c'));
  image->registry_ = std::make_shared<const Registry>(std::move(registry_));
  image->certs_ = std::make_shared<const pki::CertStore>(std::move(certs_));
  image->trust_ = std::make_shared<const pki::TrustStore>(std::move(trust_));
  return image;
}

std::shared_ptr<const HostImage> make_archetype_image(HostArchetype a) {
  HostImage::Builder builder(default_os(a));
  populate_archetype(a, builder.fs(), builder.registry());
  return builder.build();
}

}  // namespace cyd::winsys
