"""Connectivity stack: BSM codec, topic broker over framed sockets, trace
replay publisher, and the head-unit client."""
