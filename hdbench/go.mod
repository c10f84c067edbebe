// The benchmark is a module of its own so that it is built from its own
// directory; hdmaps is the module one directory up, whose internal
// packages an import path under hdmaps/ may use.
module hdmaps/hdbench

go 1.22

require hdmaps v0.0.0

replace hdmaps => ../
